// Package exchange implements intra-query parallelism: a Volcano-style
// gather splits a plan segment across N worker goroutines, routing
// tuples to them by a hash join's keys or in rotation, and merges the
// partition streams — and their statistics-collector states — back into
// one serial stream at the segment boundary.
//
// Gather points coincide with the re-optimizer's checkpoint boundaries,
// so everything the paper's machinery consumes — collector reports for
// the Eq. 1/2 checkpoint inequalities, SCIA-placed collectors, memory
// grants, plan switches — works unchanged on parallel plans: between
// segments the tuple stream is serial, and each gather emits exactly the
// merged report a serial collector would have produced.
package exchange

import (
	"fmt"
	"sync"
)

// Pool is a per-query worker pool: every goroutine the query's exchange
// operators spawn is registered here, so the dispatcher can join them
// all at end of query and surface worker panics as query errors instead
// of process crashes. It deliberately is not a semaphore — exchange
// regions are producer/consumer chains, and capping live goroutines
// below a region's population would deadlock it.
type Pool struct {
	mu      sync.Mutex
	wg      sync.WaitGroup
	err     error
	spawned int
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Go runs fn on a tracked goroutine. A panic in fn is recovered and
// recorded as the pool's error (first wins) rather than crashing the
// process; the region-level recovery inside fn normally fires first, so
// this is the backstop for bugs outside any region.
func (p *Pool) Go(label string, fn func()) {
	p.mu.Lock()
	p.spawned++
	p.mu.Unlock()
	p.wg.Add(1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				p.mu.Lock()
				if p.err == nil {
					p.err = fmt.Errorf("exchange: worker %s panicked: %v", label, r)
				}
				p.mu.Unlock()
			}
			p.wg.Done()
		}()
		fn()
	}()
}

// Spawned returns how many goroutines the pool has ever started.
func (p *Pool) Spawned() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spawned
}

// Wait joins every spawned goroutine and returns the first recorded
// panic error, if any. The dispatcher calls it after the plan's
// operators are closed, so regions have already been cancelled and the
// join is prompt.
func (p *Pool) Wait() error {
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}
