package exec

import (
	"errors"
	"sync/atomic"
	"testing"

	"github.com/reprolab/swole/internal/vec"
)

var errInjected = errors.New("injected morsel failure")

// catch runs f and returns the panic it raised, or nil.
func catch(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestWorkerPanicReRaised injects a panicking morsel (and, for the
// two-phase form, a panicking partition) into a gang and checks that the
// panic comes back on the calling goroutine as a *WorkerPanic carrying
// the original value, that the remaining workers stop claiming, and that
// the same gang then runs later jobs correctly.
func TestWorkerPanicReRaised(t *testing.T) {
	const n = 64 * vec.TileSize
	for _, workers := range []int{1, 2, 4} {
		w := NewWorkers(workers, vec.TileSize)
		jobs := []struct {
			name string
			run  func(bad int)
		}{
			{"Run", func(bad int) {
				w.Run(n, func(_, base, _ int) {
					if base == bad*vec.TileSize {
						panic(errInjected)
					}
				})
			}},
			{"RunTwoPhase/phase1", func(bad int) {
				w.RunTwoPhase(n, func(_, base, _ int) {
					if base == bad*vec.TileSize {
						panic(errInjected)
					}
				}, 8, func(int, int) {})
			}},
			{"RunTwoPhase/phase2", func(bad int) {
				w.RunTwoPhase(n, func(int, int, int) {}, 8, func(_, part int) {
					if part == bad%8 {
						panic(errInjected)
					}
				})
			}},
		}
		for _, job := range jobs {
			for _, bad := range []int{0, 5, 63} {
				r := catch(func() { job.run(bad) })
				wp, ok := r.(*WorkerPanic)
				if !ok {
					t.Fatalf("workers=%d %s bad=%d: recovered %v (%T), want *WorkerPanic", workers, job.name, bad, r, r)
				}
				if !errors.Is(wp, errInjected) || len(wp.Stack) == 0 {
					t.Errorf("workers=%d %s: panic %v lost its value or stack", workers, job.name, wp)
				}
				// The gang is reusable: a full job covers every morsel.
				var sum atomic.Int64
				w.Run(n, func(_, base, length int) { sum.Add(int64(length)) })
				if sum.Load() != n {
					t.Fatalf("workers=%d %s: gang covered %d rows after a panic, want %d", workers, job.name, sum.Load(), n)
				}
			}
		}
		// A panic stops the other workers from claiming: far fewer than
		// all morsels run after the first one fails.
		var calls atomic.Int64
		catch(func() {
			w.Run(n, func(int, int, int) {
				calls.Add(1)
				panic(errInjected)
			})
		})
		if c := calls.Load(); c > int64(workers) {
			t.Errorf("workers=%d: %d morsels ran after the first panic, want at most one per worker", workers, c)
		}
		w.Close()
	}
}
