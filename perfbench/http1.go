package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
)

// readResponse reads one HTTP/1.1 response into body and returns its
// status code. It understands exactly what the server sends:
// Content-Length or chunked framing, and no trailers.
func readResponse(br *bufio.Reader, body *bytes.Buffer) (int, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	status, err := atoi(line[9:12], 10)
	if err != nil {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		if line, err = br.ReadSlice('\n'); err != nil {
			return 0, err
		}
		k, v, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(":"))
		if len(k) == 0 {
			break
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = atoi(v, 10); err != nil {
				return 0, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	body.Reset()
	if !chunked {
		if length < 0 {
			return 0, errors.New("response has no length")
		}
		return status, readN(br, body, length)
	}
	for {
		if line, err = br.ReadSlice('\n'); err != nil {
			return 0, err
		}
		size, err := atoi(bytes.TrimRight(line, "\r\n"), 16)
		if err != nil {
			return 0, fmt.Errorf("bad chunk size %q", line)
		}
		if size == 0 {
			_, err = br.Discard(2) // the empty trailer's CRLF
			return status, err
		}
		if err := readN(br, body, size); err != nil {
			return 0, err
		}
		if _, err := br.Discard(2); err != nil {
			return 0, err
		}
	}
}

// readN appends exactly n bytes from br to body.
func readN(br *bufio.Reader, body *bytes.Buffer, n int) error {
	body.Grow(n)
	b := body.AvailableBuffer()[:n]
	if _, err := io.ReadFull(br, b); err != nil {
		return err
	}
	body.Write(b)
	return nil
}

// atoi parses a non-empty unsigned number in the given base.
func atoi(b []byte, base int) (int, error) {
	if len(b) == 0 || len(b) > 8 {
		return 0, errors.New("bad number")
	}
	n := 0
	for _, ch := range b {
		d := strings.IndexByte("0123456789abcdef", ch|0x20)
		if d < 0 || d >= base {
			return 0, errors.New("bad number")
		}
		n = n*base + d
	}
	return n, nil
}
