package kvbuf

// ObserveCRC makes fn see the size of every checksum fold in the package
// until the returned function is called. Install it before the code under
// test starts any goroutine; fn is called from all of them.
func ObserveCRC(fn func(n int)) (restore func()) {
	crcObserver = fn
	return func() { crcObserver = nil }
}

// ObservePool makes fn see the capacity of every buffer a caller asks the
// segment pool for, until the returned function is called. A warm pool
// serves a request without allocating, so this counts what a decoder asks
// for where the heap's allocation counter cannot. Install it as ObserveCRC.
func ObservePool(fn func(n int)) (restore func()) {
	poolObserver = fn
	return func() { poolObserver = nil }
}
