//go:build !amd64

package main

import (
	"bytes"
	"runtime"
)

// goid identifies the calling goroutine by the ID in its stack header
// ("goroutine 18 [running]:"). It walks the whole stack, so tracing costs
// far more here than on amd64.
func goid() uint64 {
	var buf [32]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	var id uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
