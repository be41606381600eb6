package prove_test

import (
	"bytes"
	"testing"

	"qap"
	"qap/internal/prove"
)

// TestCertificateDeterminism re-proves the same workload from fresh
// loads and checks the canonical bytes never move: the certificate is
// a pure function of (plan, set), so bytes are identical across
// processes, -shuffle=on orders, and repeated runs.
func TestCertificateDeterminism(t *testing.T) {
	var want []byte
	for i := 0; i < 5; i++ {
		sys := load(t, figure1)
		cert := prove.Prove(sys.Graph, qap.MustParseSet("srcIP & 0xFFF0"))
		b, err := cert.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = b
			continue
		}
		if !bytes.Equal(b, want) {
			t.Fatalf("run %d produced different canonical bytes", i)
		}
	}
}

// TestCertificateDeterminismOfAnalysis proves the analysis's chosen
// set after running the search afresh each time: the search result is
// a pure function of the query set, so the certificate bytes must be
// too. This is the certificate leg of the repo-wide "byte-identical
// across runs" contract (DESIGN.md §13).
func TestCertificateDeterminismOfAnalysis(t *testing.T) {
	var want []byte
	for run := 0; run < 3; run++ {
		sys := load(t, figure1)
		analysis, err := sys.Analyze(nil)
		if err != nil {
			t.Fatal(err)
		}
		cert := prove.Prove(sys.Graph, analysis.Best)
		if err := prove.Verify(sys.Graph, cert); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		b, err := cert.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = b
			continue
		}
		if !bytes.Equal(b, want) {
			t.Fatalf("run %d produced different canonical bytes", run)
		}
	}
}
