package main

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestCIMirrorsMakefile pins the merge gate's two spellings together:
// the prerequisites of `make ci` and the `run: make <target>` steps of
// the CI workflow must be the same targets in the same order, so every
// check runs exactly once in each and neither list drifts.
func TestCIMirrorsMakefile(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^ci:(.*)$`).FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile has no ci target")
	}
	makeTargets := strings.Fields(string(m[1]))

	wf, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var steps []string
	for _, s := range regexp.MustCompile(`(?m)^\s*run: make (\S+)\s*$`).FindAllSubmatch(wf, -1) {
		steps = append(steps, string(s[1]))
	}
	if len(makeTargets) == 0 || !reflect.DeepEqual(makeTargets, steps) {
		t.Errorf("make ci runs %v but the workflow steps run %v", makeTargets, steps)
	}
}
