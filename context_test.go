package strongdecomp

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestCanceledContextStopsEveryConstruction checks the cancellation
// plumbing of all registered algorithms: a canceled context makes both
// Carve and Decompose fail with ErrCanceled (and the underlying
// context.Canceled) instead of running to completion.
func TestCanceledContextStopsEveryConstruction(t *testing.T) {
	g := CycleGraph(256)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Algorithms() {
		d, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Decompose(ctx, g, nil); !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s Decompose on canceled ctx: got %v, want ErrCanceled", name, err)
		}
		if _, err := d.Carve(ctx, g, 0.5, nil); !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s Carve on canceled ctx: got %v, want ErrCanceled", name, err)
		}
		if _, err := d.Decompose(ctx, g, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s error does not match context.Canceled", name)
		}
	}
}

func TestDeadlineExceededMatchesErrCanceled(t *testing.T) {
	g := CycleGraph(64)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := DecomposeContext(ctx, g); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled on expired deadline, got %v", err)
	}
	if _, err := BallCarveContext(ctx, g, 0.5); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded to match, got %v", err)
	}
	if _, err := BallCarveEdgesContext(ctx, g, 0.5); !errors.Is(err, ErrCanceled) {
		t.Fatalf("edge carving ignored expired deadline: %v", err)
	}
}

// TestMidRunCancellation cancels while a construction is inside its main
// loop (paused inside the attached meter-free run via a competing
// goroutine) and checks the run actually stops. The cycle is large enough
// that the deterministic transformation takes hundreds of milliseconds, so
// a 1ms cancellation must interrupt it mid-flight.
func TestMidRunCancellation(t *testing.T) {
	g := CycleGraph(8192)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := DecomposeContext(ctx, g, WithAlgorithmName("chang-ghaffari-improved"))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-run cancellation not observed: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("canceled run still took %v", elapsed)
	}
}

func TestFacadeUnknownAlgorithmErrors(t *testing.T) {
	g := PathGraph(4)
	for _, algo := range []string{"nope", "Chang-Ghaffari"} {
		if _, err := BallCarve(g, 0.5, WithAlgorithmName(algo)); !errors.Is(err, ErrUnknownAlgorithm) {
			t.Fatalf("BallCarve(%q): got %v, want ErrUnknownAlgorithm", algo, err)
		}
		if _, err := Decompose(g, WithAlgorithmName(algo)); !errors.Is(err, ErrUnknownAlgorithm) {
			t.Fatalf("Decompose(%q): got %v, want ErrUnknownAlgorithm", algo, err)
		}
	}
}

// TestContextVariantsMatchLegacyResults pins the compatibility contract:
// the context-aware entry points with a background context produce exactly
// the results of the legacy signatures.
func TestContextVariantsMatchLegacyResults(t *testing.T) {
	g := GridGraph(12, 12)
	for _, algo := range []string{"chang-ghaffari", "mpx", "sequential"} {
		want, err := Decompose(g, WithAlgorithmName(algo), WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecomposeContext(context.Background(), g, WithAlgorithmName(algo), WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		for v := range want.Assign {
			if want.Assign[v] != got.Assign[v] {
				t.Fatalf("%v: context variant diverged at node %d", algo, v)
			}
		}
	}
}
