package scenario

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunOrderedStreamsInOrder checks the pool's core contract: done
// fires for every index, in index order, regardless of completion order.
func TestRunOrderedStreamsInOrder(t *testing.T) {
	const n = 50
	var ran atomic.Int64
	var got []int
	err := RunOrdered(8, n,
		func(_, i int) (int, error) {
			// Reverse the natural completion order a little.
			time.Sleep(time.Duration((n-i)%7) * time.Millisecond)
			ran.Add(1)
			return i * i, nil
		},
		func(i, v int) error {
			if v != i*i {
				t.Errorf("done(%d) got %d", i, v)
			}
			got = append(got, i)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if int(ran.Load()) != n {
		t.Fatalf("ran %d of %d tasks", ran.Load(), n)
	}
	for i, v := range got {
		if i != v {
			t.Fatalf("done order %v", got)
		}
	}
}

// TestRunOrderedError checks that a failing run surfaces its own error
// (not the skip sentinel) and stops the pool without running every
// remaining task.
func TestRunOrderedError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var doneCount int
		err := RunOrdered(workers, 100,
			func(_, i int) (int, error) {
				if i == 3 {
					return 0, boom
				}
				return i, nil
			},
			func(i, v int) error {
				if i >= 3 {
					t.Fatalf("done(%d) called past the failure", i)
				}
				doneCount++
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if doneCount > 3 {
			t.Fatalf("workers=%d: %d done calls", workers, doneCount)
		}
	}
}

// TestRunOrderedDoneError checks that an error from done stops the pool.
func TestRunOrderedDoneError(t *testing.T) {
	halt := errors.New("halt")
	err := RunOrdered(4, 20,
		func(_, i int) (int, error) { return i, nil },
		func(i, v int) error {
			if i == 2 {
				return halt
			}
			return nil
		})
	if !errors.Is(err, halt) {
		t.Fatalf("err = %v, want halt", err)
	}
}
