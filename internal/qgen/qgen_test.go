package qgen

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"qap/internal/gsql"
	"qap/internal/netgen"
	"qap/internal/plan"
	"qap/internal/schema"
)

// TestGenerateDeterministic: the whole point of the generator is that
// a seed is a complete repro token — same seed, same workload.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a, b := Generate(Config{Seed: seed}), Generate(Config{Seed: seed})
		if a.Queries != b.Queries {
			t.Fatalf("seed %d: query text differs between runs:\n%s\n--- vs ---\n%s", seed, a.Queries, b.Queries)
		}
		if fmt.Sprintf("%+v", a.Trace) != fmt.Sprintf("%+v", b.Trace) {
			t.Fatalf("seed %d: trace config differs: %+v vs %+v", seed, a.Trace, b.Trace)
		}
	}
}

// TestGenerateValid: every generated workload must load through the
// real parser and planner — the oracle depends on it.
func TestGenerateValid(t *testing.T) {
	cat, err := schema.Parse(netgen.SchemaDDL)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 100; seed++ {
		w := Generate(Config{Seed: seed})
		qs, err := gsql.ParseQuerySet(w.Queries)
		if err != nil {
			t.Fatalf("seed %d: generated queries do not parse: %v\n%s", seed, err, w.Queries)
		}
		if _, err := plan.Build(cat, qs); err != nil {
			t.Fatalf("seed %d: generated queries do not plan: %v\n%s", seed, err, w.Queries)
		}
		if len(qs.Queries) < 3 {
			t.Fatalf("seed %d: only %d queries generated", seed, len(qs.Queries))
		}
		if w.Trace.DurationSec <= 0 || w.Trace.PacketsPerSec <= 0 {
			t.Fatalf("seed %d: degenerate trace %+v", seed, w.Trace)
		}
	}
}

// TestGenerateVariety: across a modest seed range the generator must
// exercise every feature family the differential oracle is meant to
// stress — aggregation, joins, outer joins, HAVING, WINDOW, holistic
// aggregates, subtraction in every position it is drawn in, and DAG
// fan-out (a query reading another query).
func TestGenerateVariety(t *testing.T) {
	var all strings.Builder
	fanOut, joinDiffAgg := false, false
	joinDiff := regexp.MustCompile(`S2\.\w+ - S1\.\w+ AS (j\d+)`)
	for seed := int64(0); seed < 150; seed++ {
		w := Generate(Config{Seed: seed})
		all.WriteString(w.Queries)
		all.WriteByte('\n')
		if strings.Contains(w.Queries, "FROM q") || strings.Contains(w.Queries, "JOIN q") {
			fanOut = true
		}
		// A join's difference fed to MIN, MAX or AVG of an aggregate.
		for _, m := range joinDiff.FindAllStringSubmatch(w.Queries, -1) {
			if regexp.MustCompile(`(MIN|MAX|AVG)\(` + m[1] + `\)`).MatchString(w.Queries) {
				joinDiffAgg = true
			}
		}
	}
	if !joinDiffAgg {
		t.Error("150 seeds never fed a join's difference to MIN, MAX or AVG")
	}
	text := all.String()
	for _, want := range []string{
		"GROUP BY", "WHERE", "HAVING", "WINDOW",
		"OUTER JOIN", "JOIN", "COUNT(*)", "SUM(", "MIN(", "MAX(", "AVG(",
		"COUNT_DISTINCT(", "OR_AGGR(",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("150 seeds never produced %q", want)
		}
	}
	for name, re := range map[string]string{
		"a - b in a select list":        `(?m)^SELECT .*\w+ - [a-zA-Z]\w* AS d\d+`,
		"c - k in a select list":        `(?m)^SELECT .*\w+ - \d+ AS d\d+`,
		"a difference across a join":    `S2\.\w+ - S1\.\w+ AS j\d+`,
		"SUM over a difference":         `SUM\(\w+ - \w+\)`,
		"MIN or MAX over a difference":  `(MIN|MAX)\(\w+ - \w+\)`,
		"AVG over a difference":         `AVG\(\w+ - \w+\)`,
		"a difference in a predicate":   `(?m)^WHERE .*\w+ - \w+ [<>]`,
		"a difference in a join filter": `S1\.\w+ - (S1\.\w+|\d+) [<>]`,
		"a difference in HAVING":        `HAVING .*\) - \d+ >`,
	} {
		if !regexp.MustCompile(re).MatchString(text) {
			t.Errorf("150 seeds never produced %s", name)
		}
	}
	if !fanOut {
		t.Error("150 seeds never produced DAG fan-out (a query reading another query)")
	}
}

// TestGenerateMaxQueries honors the explicit size knob.
func TestGenerateMaxQueries(t *testing.T) {
	w := Generate(Config{Seed: 7, MaxQueries: 2})
	qs, err := gsql.ParseQuerySet(w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs.Queries) != 2 {
		t.Fatalf("MaxQueries=2 produced %d queries", len(qs.Queries))
	}
}
