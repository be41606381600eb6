package lint

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"qap/internal/core"
	"qap/internal/gsql"
	"qap/internal/netgen"
	"qap/internal/plan"
	"qap/internal/schema"
)

var update = flag.Bool("update", false, "rewrite golden files")

// load builds the plan DAG for a query set over the TCP schema.
func load(t *testing.T, ddl, queries string) (*plan.Graph, *gsql.QuerySet) {
	t.Helper()
	cat, err := schema.Parse(ddl)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := gsql.ParseQuerySet(queries)
	if err != nil {
		t.Fatal(err)
	}
	g, err := plan.Build(cat, qs)
	if err != nil {
		t.Fatal(err)
	}
	return g, qs
}

// lintText lints a query set over the TCP schema and returns the
// human rendering, deriving candidate sets from the node requirements.
func lintText(t *testing.T, queries string) *Report {
	t.Helper()
	g, qs := load(t, netgen.SchemaDDL, queries)
	var opts Options
	opts.Source = "<test>"
	return Run(g, qs, opts)
}

func figure1Source(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "examples", "queries", "figure1.gsql"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFigure1Golden pins the full diagnostic output for the paper's
// Figure 1 query set, analysis included, against a golden file.
func TestFigure1Golden(t *testing.T) {
	g, qs := load(t, netgen.SchemaDDL, figure1Source(t))
	res, err := core.Optimize(g, nil, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var opts Options
	opts.Source = "figure1.gsql"
	opts.Analysis = res
	rep := Run(g, qs, opts)

	got := rep.Human()
	golden := filepath.Join("testdata", "figure1.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("golden mismatch (rerun with -update after reviewing)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFigure1ExplainsEveryNodeAndSet is the acceptance criterion: for
// every query node and every candidate partitioning set, the report
// says whether the set is compatible (QAP003) or which scope rule
// excluded it (QAP004) — or that the node is universal (QAP001).
func TestFigure1ExplainsEveryNodeAndSet(t *testing.T) {
	g, qs := load(t, netgen.SchemaDDL, figure1Source(t))
	res, err := core.Optimize(g, nil, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var opts Options
	opts.Analysis = res
	rep := Run(g, qs, opts)

	sets := candidateSets(g, opts)
	if len(sets) == 0 {
		t.Fatal("no candidate sets derived")
	}
	for _, n := range g.QueryNodes() {
		universal := false
		explained := make(map[string]bool)
		for _, d := range rep.Diagnostics {
			if d.Query != n.QueryName {
				continue
			}
			switch d.Code {
			case CodeUniversal:
				universal = true
			case CodeSetCompatible, CodeSetExcluded:
				for _, ps := range sets {
					if strings.Contains(d.Message, ps.String()) {
						explained[ps.String()] = true
					}
				}
				if d.Code == CodeSetExcluded && !strings.Contains(d.Message, "Section 3.5") {
					t.Errorf("%s: exclusion cites no scope rule: %s", n.QueryName, d.Message)
				}
			}
		}
		if universal {
			continue
		}
		for _, ps := range sets {
			if !explained[ps.String()] {
				t.Errorf("node %s: candidate set %s not explained", n.QueryName, ps)
			}
		}
	}
}

// TestDeterministicOutput asserts the report bytes are identical
// across repeated runs.
func TestDeterministicOutput(t *testing.T) {
	src := figure1Source(t)
	render := func() (string, string) {
		g, qs := load(t, netgen.SchemaDDL, src)
		res, err := core.Optimize(g, nil, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var opts Options
		opts.Source = "figure1.gsql"
		opts.Analysis = res
		rep := Run(g, qs, opts)
		j, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Human(), string(j)
	}
	h1, j1 := render()
	for run := 0; run < 3; run++ {
		h, j := render()
		if h != h1 || j != j1 {
			t.Fatalf("output differs at run %d", run)
		}
	}
}

func hasCode(rep *Report, code string) bool {
	for _, d := range rep.Diagnostics {
		if d.Code == code {
			return true
		}
	}
	return false
}

func diagsWith(rep *Report, code string) []Diagnostic {
	var out []Diagnostic
	for _, d := range rep.Diagnostics {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}

func TestMisalignedWindows(t *testing.T) {
	rep := lintText(t, `
query a:
SELECT tb, srcIP, COUNT(*) as cnt FROM TCP GROUP BY time/60 as tb, srcIP

query b:
SELECT tb2, srcIP, COUNT(*) as cnt2 FROM TCP GROUP BY time/30 as tb2, srcIP

query j:
SELECT S1.tb, S1.cnt, S2.cnt2 FROM a S1, b S2
WHERE S1.srcIP = S2.srcIP AND S1.tb = S2.tb2`)
	ds := diagsWith(rep, CodeWindowMisaligned)
	if len(ds) != 1 {
		t.Fatalf("want 1 QAP005, got %d: %v", len(ds), rep.Diagnostics)
	}
	if !strings.Contains(ds[0].Message, "time / 60") || !strings.Contains(ds[0].Message, "time / 30") {
		t.Errorf("QAP005 should name both window expressions: %s", ds[0].Message)
	}
	if hasCode(rep, CodeCrossEpochJoin) {
		t.Error("misaligned windows misreported as cross-epoch offset")
	}
}

func TestCrossEpochJoinIsNotMisaligned(t *testing.T) {
	rep := lintText(t, figure1Source(t))
	if hasCode(rep, CodeWindowMisaligned) {
		t.Error("flow_pairs tb = tb+1 wrongly flagged as misaligned")
	}
	ds := diagsWith(rep, CodeCrossEpochJoin)
	if len(ds) != 1 {
		t.Fatalf("want 1 QAP011 for flow_pairs, got %d", len(ds))
	}
	if ds[0].Query != "flow_pairs" {
		t.Errorf("QAP011 on %q, want flow_pairs", ds[0].Query)
	}
}

func TestUncoverableJoinKey(t *testing.T) {
	g, qs := load(t, netgen.SchemaDDL, `
query j:
SELECT S1.srcIP, S2.destIP FROM TCP S1, TCP S2
WHERE S1.time/60 = S2.time/60 AND S1.srcIP = S2.destIP`)
	var opts Options
	opts.Sets = []core.Set{core.MustParseSet("srcIP")}
	rep := Run(g, qs, opts)
	ds := diagsWith(rep, CodeSetExcluded)
	if len(ds) != 1 {
		t.Fatalf("want 1 QAP004, got %d: %v", len(ds), rep.Diagnostics)
	}
	if !strings.Contains(ds[0].Message, "3.5.3") {
		t.Errorf("exclusion should cite join-key coverage: %s", ds[0].Message)
	}
}

func TestHavingEvaluatesCentrally(t *testing.T) {
	rep := lintText(t, `
query heavy:
SELECT tb, srcIP, COUNT(*) as cnt
FROM TCP
GROUP BY time/60 as tb, srcIP
HAVING COUNT(*) > 100`)
	ds := diagsWith(rep, CodeHavingCentral)
	if len(ds) != 1 {
		t.Fatalf("want 1 QAP006, got %d: %v", len(ds), rep.Diagnostics)
	}
	// The diagnostic anchors at the HAVING clause, not the query head.
	if ds[0].Line != 6 {
		t.Errorf("QAP006 at line %d, want 6 (the HAVING clause)", ds[0].Line)
	}
}

func TestHolisticAggregate(t *testing.T) {
	rep := lintText(t, `
query fanout:
SELECT tb, srcIP, COUNT_DISTINCT(destIP) as dsts
FROM TCP
GROUP BY time/60 as tb, srcIP`)
	ds := diagsWith(rep, CodeHolisticAggregate)
	if len(ds) != 1 {
		t.Fatalf("want 1 QAP007, got %d: %v", len(ds), rep.Diagnostics)
	}
	if !strings.Contains(ds[0].Message, "APPROX_COUNT_DISTINCT") {
		t.Errorf("QAP007 should suggest the splittable alternative: %s", ds[0].Message)
	}
	// A holistic aggregate can't split, so no QAP006 even with HAVING.
	if hasCode(rep, CodeHavingCentral) {
		t.Error("unexpected QAP006 without a HAVING clause")
	}
}

func TestUnpartitionableSlidingWindow(t *testing.T) {
	rep := lintText(t, `
query w:
SELECT pane, COUNT(*) as cnt
FROM TCP
GROUP BY time/10 AS pane
WINDOW 6`)
	ds := diagsWith(rep, CodeUnpartitionable)
	if len(ds) != 1 {
		t.Fatalf("want 1 QAP002, got %d: %v", len(ds), rep.Diagnostics)
	}
	if !strings.Contains(ds[0].Message, "3.5.1") {
		t.Errorf("QAP002 should cite the temporal exclusion: %s", ds[0].Message)
	}
}

func TestDeadColumn(t *testing.T) {
	rep := lintText(t, figure1Source(t))
	ds := diagsWith(rep, CodeDeadColumn)
	if len(ds) != 1 {
		t.Fatalf("want 1 QAP008, got %d: %v", len(ds), rep.Diagnostics)
	}
	if ds[0].Query != "flows" || !strings.Contains(ds[0].Message, `"destIP"`) {
		t.Errorf("QAP008 should flag flows.destIP: %s", ds[0])
	}
}

func TestNullPaddedGroupKey(t *testing.T) {
	rep := lintText(t, `
query a:
SELECT tb, srcIP, COUNT(*) as cnt FROM TCP GROUP BY time/60 as tb, srcIP

query b:
SELECT tb, destIP, COUNT(*) as pkts FROM TCP GROUP BY time/60 as tb, destIP

query j:
SELECT S1.tb AS tb, S1.srcIP AS srcIP, S2.pkts AS pkts
FROM a S1 LEFT OUTER JOIN b S2 ON S1.tb = S2.tb AND S1.srcIP = S2.destIP

query g:
SELECT tb, pkts, COUNT(*) as n FROM j GROUP BY tb, pkts`)
	ds := diagsWith(rep, CodeNullPadded)
	if len(ds) != 1 {
		t.Fatalf("want 1 QAP009, got %d: %v", len(ds), rep.Diagnostics)
	}
	if ds[0].Query != "g" || !strings.Contains(ds[0].Message, `"pkts"`) {
		t.Errorf("QAP009 should flag g grouping on padded pkts: %s", ds[0])
	}
}

func TestJoinKeyTypeMismatch(t *testing.T) {
	ddl := netgen.SchemaDDL + "\nWEB(time increasing, url string, srcIP)"
	g, qs := load(t, ddl, `
query j:
SELECT S1.srcIP FROM TCP S1, WEB S2
WHERE S1.time/60 = S2.time/60 AND S1.srcIP = S2.url`)
	rep := Run(g, qs, Options{})
	ds := diagsWith(rep, CodeKeyTypeMismatch)
	if len(ds) != 1 {
		t.Fatalf("want 1 QAP010, got %d: %v", len(ds), rep.Diagnostics)
	}
	if !rep.HasErrors() {
		t.Error("QAP010 is an error; HasErrors should be true")
	}
}

func TestLoadErrorReport(t *testing.T) {
	_, err := gsql.ParseQuerySet("query broken:\nSELECT FROM TCP")
	if err == nil {
		t.Fatal("want parse error")
	}
	rep := LoadErrorReport("broken.gsql", err)
	if len(rep.Diagnostics) != 1 || rep.Diagnostics[0].Code != CodeLoadError {
		t.Fatalf("want exactly one QAP000, got %v", rep.Diagnostics)
	}
	if !rep.HasErrors() {
		t.Error("load failures are errors")
	}
	if rep.Diagnostics[0].Line == 0 {
		t.Error("QAP000 should carry the parser's position")
	}
}

// TestJSONSchema validates the machine-readable report shape: required
// keys, code and severity formats, registry consistency, round-trip.
func TestJSONSchema(t *testing.T) {
	g, qs := load(t, netgen.SchemaDDL, figure1Source(t))
	res, err := core.Optimize(g, nil, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(g, qs, Options{Source: "figure1.gsql", Analysis: res})
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(b, []byte("\n")) {
		t.Error("JSON output must end with a newline")
	}

	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema_version", "source", "diagnostics", "errors", "warnings", "infos"} {
		if _, ok := m[key]; !ok {
			t.Errorf("missing top-level key %q", key)
		}
	}
	codeRE := regexp.MustCompile(`^QAP\d{3}$`)
	diags, ok := m["diagnostics"].([]any)
	if !ok || len(diags) == 0 {
		t.Fatalf("diagnostics missing or empty: %v", m["diagnostics"])
	}
	for i, raw := range diags {
		d, ok := raw.(map[string]any)
		if !ok {
			t.Fatalf("diagnostic %d is not an object", i)
		}
		code, _ := d["code"].(string)
		if !codeRE.MatchString(code) {
			t.Errorf("diagnostic %d: bad code %q", i, code)
		}
		sev, _ := d["severity"].(string)
		if sev != "error" && sev != "warning" && sev != "info" {
			t.Errorf("diagnostic %d: bad severity %q", i, sev)
		}
		if sev != codeSeverity(code).String() {
			t.Errorf("diagnostic %d: severity %q disagrees with registry %q for %s", i, sev, codeSeverity(code), code)
		}
		if _, ok := d["line"].(float64); !ok {
			t.Errorf("diagnostic %d: line is not a number", i)
		}
		if _, ok := d["message"].(string); !ok {
			t.Errorf("diagnostic %d: message is not a string", i)
		}
	}

	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Error("JSON round trip is not byte-identical")
	}
}

// TestCodesRegistry keeps the registry, the emitted codes, and the
// DESIGN.md documentation table consistent.
func TestCodesRegistry(t *testing.T) {
	seen := make(map[string]bool)
	for i, c := range Codes {
		if want := fmt.Sprintf("QAP%03d", i); c.Code != want {
			t.Errorf("registry entry %d: code %s, want %s (dense ascending order)", i, c.Code, want)
		}
		if seen[c.Code] {
			t.Errorf("duplicate code %s", c.Code)
		}
		seen[c.Code] = true
		if c.Title == "" || c.Section == "" {
			t.Errorf("%s: empty title or section", c.Code)
		}
	}

	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range Codes {
		if !bytes.Contains(design, []byte(c.Code)) {
			t.Errorf("DESIGN.md does not document %s", c.Code)
		}
	}
}
