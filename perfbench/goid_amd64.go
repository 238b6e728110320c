package main

// getg returns the address of the calling goroutine's runtime descriptor,
// read from thread-local storage. It identifies the goroutine for as long
// as the goroutine lives.
func getg() uintptr

// goid identifies the calling goroutine.
func goid() uint64 { return uint64(getg()) }
