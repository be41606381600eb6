package difftest

import (
	"maps"
	"slices"
	"testing"

	"qap"
	"qap/internal/netgen"
	obstrace "qap/internal/obs/trace"
)

// TestJudgeReportsEachArtifact perturbs one artifact of one small run
// at a time — output, an OpStats counter, Metrics, a trace byte, a load
// window — and checks that the rule reports it under the axis of the
// perturbed cell, while a cell of another plan whose counters differ
// is not reported: counters are compared only within a plan group.
func TestJudgeReportsEachArtifact(t *testing.T) {
	sys, err := qap.Load(netgen.SchemaDDL, qap.QuerySetSection62)
	if err != nil {
		t.Fatal(err)
	}
	traced := &qap.RunTraceConfig{}
	ref := cell{set: "best", DeployConfig: qap.DeployConfig{Hosts: 2, Workers: 1, LoadWindowSec: 1, Trace: traced}}
	dep, err := sys.Deploy(ref.DeployConfig)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dep.RunStreams(map[string][]netgen.Packet{"TCP": netgen.Generate(netgen.Config{
		Seed: 1, DurationSec: 4, PacketsPerSec: 60, SrcHosts: 4, DstHosts: 4,
		ZipfS: 1.3, MeanFlowPackets: 3, Ports: 16,
	}).Packets})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.LoadSeries) == 0 || len(res.OpStats) == 0 {
		t.Fatal("the reference run carries no trace, load series or counters")
	}
	if res.OpStats[0] == nil {
		t.Fatal("the reference run has no operator 0")
	}
	bump := func(res *qap.RunResult) {
		st := *res.OpStats[0]
		st.RowsIn++
		res.OpStats = maps.Clone(res.OpStats)
		res.OpStats[0] = &st
	}
	same := func(c qap.DeployConfig) cell {
		c.Hosts, c.Trace = 2, traced
		return cell{set: "best", DeployConfig: c}
	}
	for _, tc := range []struct {
		name    string
		c       cell
		perturb func(*qap.RunResult)
		axis    string // "" when nothing may be reported
	}{
		{"output", same(qap.DeployConfig{BatchSize: 7, Engine: qap.EngineLive}), func(res *qap.RunResult) {
			res.Outputs = maps.Clone(res.Outputs)
			for _, name := range res.OutputNames() {
				res.Outputs[name] = append(res.Outputs[name], qap.Tuple{qap.Uint(1)})
				return
			}
		}, "live"},
		{"opstats", same(qap.DeployConfig{Workers: 4}), bump, "equivalence"},
		{"metrics", same(qap.DeployConfig{Workers: 4, BatchSize: 64}), func(res *qap.RunResult) {
			m := *res.Metrics
			m.Hosts = slices.Clone(m.Hosts)
			m.Hosts[0].Tuples++
			res.Metrics = &m
		}, "batched"},
		{"trace", same(qap.DeployConfig{BatchSize: 256, LoadWindowSec: 1, Engine: qap.EngineLive}), func(res *qap.RunResult) {
			recs := slices.Clone(res.Trace.Records)
			i := slices.IndexFunc(recs, func(e obstrace.Event) bool { return e.Kind == obstrace.KindOpWindow })
			recs[i].RowsIn++
			res.Trace = &qap.RunTrace{Records: recs}
		}, "live"},
		{"loadwindow", same(qap.DeployConfig{Workers: 4, BatchSize: 256, LoadWindowSec: 1}), func(res *qap.RunResult) {
			ls := slices.Clone(res.LoadSeries)
			ls[0].Hosts = slices.Clone(ls[0].Hosts)
			ls[0].Hosts[0].Tuples++
			res.LoadSeries = ls
		}, "trace"},
		{"other plan", cell{set: "best", DeployConfig: qap.DeployConfig{Hosts: 3, Workers: 4}}, bump, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs := 0
			rep := &Report{}
			rep.checkCells([]cell{ref, tc.c}, Canonical(res), func(qap.DeployConfig) (*qap.RunResult, error) {
				runs++
				cp := *res
				if runs == 2 {
					tc.perturb(&cp)
				}
				return &cp, nil
			})
			switch {
			case tc.axis == "" && !rep.OK():
				t.Errorf("reported across plans: %+v", rep.Mismatches)
			case tc.axis != "" && len(rep.Mismatches) != 1:
				t.Errorf("want one mismatch on %s, got %+v", tc.c, rep.Mismatches)
			case tc.axis != "" && (rep.Mismatches[0].Axis != tc.axis || rep.Mismatches[0].Config != tc.c.String()):
				t.Errorf("reported as [%s: %s], want [%s: %s]",
					rep.Mismatches[0].Axis, rep.Mismatches[0].Config, tc.axis, tc.c)
			}
		})
	}
}
