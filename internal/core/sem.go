package core

// workerSem is a counting semaphore measured in search-goroutine units. The
// decomposition pipeline sizes it to Options.Workers and charges detection
// and every solve for the goroutines they actually run: one unit for
// detection or for a goroutine working through ready nodes, plus one per
// further pbb worker of a parallel solve. That caps the machine-wide search
// concurrency at Options.Workers no matter how many subproblems the
// hierarchy solves at once. A parallel solve adds its further units with
// take, which never waits: it runs narrower rather than wait for units
// other solves hold. Each held unit is one token in the channel.
type workerSem chan struct{}

func newWorkerSem(units int) workerSem {
	return make(workerSem, max(units, 1))
}

// acquire blocks until a unit is free and takes it.
func (s workerSem) acquire() { s <- struct{}{} }

// take takes up to n free units without waiting and returns how many it
// got, possibly none.
func (s workerSem) take(n int) int {
	got := 0
	for ; got < n; got++ {
		select {
		case s <- struct{}{}:
		default:
			return got
		}
	}
	return got
}

// release returns n held units.
func (s workerSem) release(n int) {
	for range n {
		<-s
	}
}
