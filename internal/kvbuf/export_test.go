package kvbuf

// ObserveCRC makes fn see the size of every checksum fold in the package
// until the returned function is called. Install it before the code under
// test starts any goroutine; fn is called from all of them.
func ObserveCRC(fn func(n int)) (restore func()) {
	crcObserver = fn
	return func() { crcObserver = nil }
}
