package main

import (
	"fmt"
	"os"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/labexample"
	"xmlsec/internal/server"
	"xmlsec/internal/subjects"
	"xmlsec/internal/wal"
)

// E14 — the durability tax: PUT (document update) throughput with the
// write-ahead log under each fsync policy, against the in-memory
// baseline. Every update runs the full write path — view diff, merge,
// DTD validation, WAL append, commit — so the numbers are the
// end-to-end cost a client sees, not the raw fsync latency (that is the
// xmlsec_wal_fsync_seconds histogram's job).

// updatedLab is a valid replacement for CSlab.xml (one project dropped)
// so consecutive updates alternate between two distinct states.
const updatedLab = `<?xml version="1.0"?>
<!DOCTYPE laboratory SYSTEM "laboratory.xml">
<laboratory name="CSlab">
  <project name="Access Models" type="internal">
    <manager><flname>Ada Turing</flname></manager>
    <paper category="public"><title>XML Views</title></paper>
  </project>
</laboratory>
`

// walBenchResult is one measured policy row, and the record format of
// BENCH_wal.json.
type walBenchResult struct {
	Policy     string  `json:"policy"`
	NsPerOp    float64 `json:"ns_op"`
	PutsPerSec float64 `json:"puts_per_sec"`
	Appends    uint64  `json:"appends"`
	Fsyncs     uint64  `json:"fsyncs"`
	WALBytes   uint64  `json:"wal_bytes"`
}

func expWAL() error {
	sam := subjects.Requester{User: "Sam", IP: "130.89.56.8", Host: "adminhost.lab.com"}
	mkSite := func() (*server.Site, error) {
		site, err := mkLabSite()
		if err != nil {
			return nil, err
		}
		if err := site.Auths.Add(authz.InstanceLevel,
			authz.MustParse(`<<Admin,*,*>,CSlab.xml:/laboratory,read,+,R>`)); err != nil {
			return nil, err
		}
		if err := site.GrantWrite(authz.InstanceLevel,
			`<<Admin,*,*>,CSlab.xml:/laboratory,write,+,R>`); err != nil {
			return nil, err
		}
		return site, nil
	}

	policies := []struct {
		name string
		sync wal.SyncPolicy
	}{
		{"off", 0}, // no WAL at all: the in-memory baseline
		{wal.SyncAlways.String(), wal.SyncAlways},
		{wal.SyncInterval.String(), wal.SyncInterval},
		{wal.SyncNever.String(), wal.SyncNever},
	}

	var results []walBenchResult
	var nsOff float64
	fmt.Printf("%-10s %-14s %-14s %-10s %-10s %-12s\n",
		"fsync", "ns/op", "puts/sec", "appends", "fsyncs", "wal bytes")
	for _, p := range policies {
		site, err := mkSite()
		if err != nil {
			return err
		}
		if p.name != "off" {
			dir, err := os.MkdirTemp("", "xsbench-wal-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			// A high snapshot threshold keeps compaction out of the
			// measurement; E14 isolates the append/fsync cost.
			if err := site.EnableDurability(dir, server.DurabilityOptions{
				Sync:          p.sync,
				SnapshotBytes: 1 << 30,
			}); err != nil {
				return err
			}
		}
		sources := [2]string{updatedLab, labexample.DocSource}
		i := 0
		br := testing.Benchmark(func(b *testing.B) {
			for ; b.Loop(); i++ {
				if err := site.Update(sam, labexample.DocURI, sources[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
		st := site.WALStats()
		if site.Durable() {
			if err := site.CloseDurability(); err != nil {
				return err
			}
		}
		r := walBenchResult{
			Policy:     p.name,
			NsPerOp:    float64(br.NsPerOp()),
			PutsPerSec: 1e9 / float64(br.NsPerOp()),
			Appends:    st.Appends,
			Fsyncs:     st.Fsyncs,
			WALBytes:   st.AppendedBytes,
		}
		results = append(results, r)
		suffix := ""
		if p.name == "off" {
			nsOff = r.NsPerOp
		} else if nsOff > 0 {
			suffix = fmt.Sprintf("  (%.2fx baseline)", r.NsPerOp/nsOff)
		}
		fmt.Printf("%-10s %-14.0f %-14.0f %-10d %-10d %-12d%s\n",
			r.Policy, r.NsPerOp, r.PutsPerSec, r.Appends, r.Fsyncs, r.WALBytes, suffix)
	}
	fmt.Println("(each op is a full document update: view diff, merge, DTD validation,")
	fmt.Println(" WAL append, commit; 'always' pays one fsync per op, 'interval' amortizes")
	fmt.Println(" them on a 50ms ticker, 'never' leaves flushing to the OS)")

	return writeJSON(results)
}
