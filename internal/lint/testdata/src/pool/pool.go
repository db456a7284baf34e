// Package pool stands in for the module's bounded worker pool: the last
// argument of ForEach is the worker body, invoked with job indices.
package pool

// ForEach runs fn(i) for every i in [0,n).
func ForEach(n, workers int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}
