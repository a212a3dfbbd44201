package fl

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestRunWindowOrdersAndBounds pins the round core's exchange window at
// (workers, window) ∈ {(1,1), (2,2), (2,n), (8,n)} under seeded random
// per-position delays: results are taken in cohort order, never more
// than window exchanges are admitted at once, and an error taken at
// position k is returned, runs the abort hook once and admits nothing
// after it. To see that last point, every exchange past k blocks until
// the abort: each worker then holds at most one of them, so a window
// that admits nothing after the abort exchanges at most min(workers,
// window-1) positions past k. Every run's goroutines are gone when
// RunWindow returns.
func TestRunWindowOrdersAndBounds(t *testing.T) {
	const n = 32
	base := runtime.NumGoroutine()
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {2, n}, {8, n}} {
		workers, size := shape[0], shape[1]
		for _, failAt := range []int{-1, 0, 5, n - 1} {
			t.Run(fmt.Sprintf("w%d/window%d/fail%d", workers, size, failAt), func(t *testing.T) {
				delays := rand.New(rand.NewSource(int64(workers*1000 + size*10 + failAt)))
				delay := make([]time.Duration, n)
				for i := range delay {
					delay[i] = time.Duration(delays.Intn(300)) * time.Microsecond
				}
				var (
					mu                   sync.Mutex
					live, peak, pastFail int
				)
				errAt := errors.New("exchange failed")
				release := make(chan struct{})
				next, aborts := 0, 0
				w := Window{Workers: workers, Size: size, Abort: func() {
					aborts++
					close(release)
				}}
				gotPeak, err := RunWindow(n, w,
					func(pos int) int {
						mu.Lock()
						live++
						peak = max(peak, live)
						if failAt >= 0 && pos > failAt {
							pastFail++
						}
						mu.Unlock()
						if failAt >= 0 && pos > failAt {
							<-release
						}
						time.Sleep(delay[pos])
						return pos
					}, func(pos, r int) error {
						mu.Lock()
						defer mu.Unlock()
						live--
						if pos != next || r != pos {
							t.Errorf("took position %d with result %d, want position %d", pos, r, next)
						}
						next++
						if pos == failAt {
							return fmt.Errorf("position %d: %w", pos, errAt)
						}
						return nil
					})
				if failAt < 0 {
					if err != nil || next != n || aborts != 0 {
						t.Fatalf("clean run: err %v, took %d of %d, %d aborts", err, next, n, aborts)
					}
				} else {
					if !errors.Is(err, errAt) || err.Error() != fmt.Sprintf("position %d: %v", failAt, errAt) {
						t.Fatalf("got %v, want position %d's error", err, failAt)
					}
					if aborts != 1 || next != failAt+1 {
						t.Fatalf("%d aborts, took %d positions; want 1 abort after position %d", aborts, next, failAt)
					}
					if most := min(workers, size-1); pastFail > most {
						t.Fatalf("exchanged %d positions past the failure, want at most %d", pastFail, most)
					}
				}
				// An exchange runs within its admission, so the core's own peak
				// bounds the one seen here.
				if peak > gotPeak || gotPeak > size {
					t.Fatalf("peak %d running, %d admitted, window %d", peak, gotPeak, size)
				}
			})
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("%d goroutines after the windows, %d before", g, base)
	}
}

// TestRunWindowEmpty: an empty cohort exchanges and takes nothing.
func TestRunWindowEmpty(t *testing.T) {
	peak, err := RunWindow(0, Window{Workers: 4, Size: 4}, func(int) int {
		t.Fatal("exchange called on an empty cohort")
		return 0
	}, func(int, int) error {
		t.Fatal("take called on an empty cohort")
		return nil
	})
	if peak != 0 || err != nil {
		t.Fatalf("empty cohort: peak %d, err %v", peak, err)
	}
}
