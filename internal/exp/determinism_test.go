package exp

import (
	"bytes"
	"runtime"
	"testing"
)

// TestArtifactsDeterministicAcrossGOMAXPROCS: the JSON artifacts behind
// cmd/experiments -quick -json must be byte-identical whether the worker
// pool runs serially or 8-wide — parallelFor changes wall-clock, never
// results. F5 fans out across schedulers, T3 across mixes, X1 across
// configurations sharing one baseline cache, and F11 across a mixes x
// variants grid it also reads its case-study notes from, so all of them
// exercise the pool with work that would expose ordering or shared-state
// leaks between indexes.
func TestArtifactsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("runs quick-fidelity simulations")
	}
	run := func(procs int, id string) []byte {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := e.Run(NewContext(true))
		if err != nil {
			t.Fatalf("%s at GOMAXPROCS=%d: %v", id, procs, err)
		}
		data, err := tb.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, id := range []string{"F5", "T3", "X1", "F11"} {
		serial := run(1, id)
		wide := run(8, id)
		if !bytes.Equal(serial, wide) {
			t.Errorf("%s artifact differs between GOMAXPROCS=1 and 8:\n serial: %s\n   wide: %s",
				id, serial, wide)
		}
	}
}
