package trace

// SlowEvents reports how many events r has decoded a byte at a time,
// outside its word loop.
func SlowEvents(r *Reader) uint64 { return r.slow }
