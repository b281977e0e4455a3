package core

import (
	"context"
	"errors"
	"testing"
)

// A pre-cancelled context must stop both stages of the TENDS pipeline — the
// IMI computation and the parent search — with the context's error, at any
// worker count.
func TestInferContextCancelled(t *testing.T) {
	m := randomStatus(80, 30, 5)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := InferContext(ctx, m, Options{Workers: workers}); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

func TestComputeIMIContextCancelled(t *testing.T) {
	m := randomStatus(80, 30, 5)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := ComputeIMIContext(ctx, m, false, workers); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	// A live context must be unaffected.
	if imi, err := ComputeIMIContext(context.Background(), m, false, 0); imi == nil || err != nil {
		t.Fatalf("ComputeIMIContext: %v", err)
	}
	if _, err := Infer(m, Options{}); err != nil {
		t.Fatalf("Infer: %v", err)
	}
}
