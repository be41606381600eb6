package main

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"qap"
	"qap/internal/exec"
	"qap/internal/netgen"
)

// digest is the canonical fingerprint of one run's outputs: per root
// query, in sorted name order, the SHA-256 of its rows sorted by their
// text form. Row order within a query is a plan detail (it differs
// between partitionings), the sorted multiset is not.
type digest struct {
	queries []string
	sums    [][sha256.Size]byte
	// rows is the total row count, so an all-empty result cannot pass
	// for a verified one.
	rows int
}

// digestOf fingerprints a run's outputs.
func digestOf(outputs map[string][]exec.Tuple) digest {
	names := make([]string, 0, len(outputs))
	for name := range outputs { //qap:allow maprange -- names collected then sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	d := digest{queries: names}
	for _, name := range names {
		rows := outputs[name]
		d.rows += len(rows)
		lines := make([]string, len(rows))
		for i, t := range rows {
			lines[i] = t.String()
		}
		sort.Strings(lines)
		h := sha256.New()
		for _, l := range lines {
			h.Write([]byte(l))
			h.Write([]byte{'\n'})
		}
		var sum [sha256.Size]byte
		h.Sum(sum[:0])
		d.sums = append(d.sums, sum)
	}
	return d
}

// diff names the first query on which d and ref disagree, or "" when
// they are equal.
func (d digest) diff(ref digest) string {
	for i, name := range ref.queries {
		if i >= len(d.queries) || d.queries[i] != name {
			return name
		}
		if d.sums[i] != ref.sums[i] {
			return name
		}
	}
	if len(d.queries) > len(ref.queries) {
		return d.queries[len(ref.queries)]
	}
	return ""
}

// referenceDigest runs the query set centralised and scalar — one host,
// one partition, tuple at a time, sequential engine — which shares no
// batching, pivot, kernel, routing or transport code with the measured
// configurations.
func referenceDigest(w *workload, packets []netgen.Packet) (digest, error) {
	sys, err := qap.Load(netgen.SchemaDDL, w.queries)
	if err != nil {
		return digest{}, fmt.Errorf("reference: %w", err)
	}
	dep, err := sys.Deploy(qap.DeployConfig{
		Hosts: 1, PartitionsPerHost: 1, Workers: 1, BatchSize: 1, Params: params(),
	})
	if err != nil {
		return digest{}, fmt.Errorf("reference: %w", err)
	}
	res, err := dep.Run("TCP", packets)
	if err != nil {
		return digest{}, fmt.Errorf("reference: %w", err)
	}
	return digestOf(res.Outputs), nil
}
