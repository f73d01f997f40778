package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/labexample"
	"xmlsec/internal/server"
	"xmlsec/internal/subjects"
	"xmlsec/internal/wal"
)

// E18 — the update language against whole-document writes: a mixed
// read/write workload at increasing write fractions, once with each
// logical edit expressed as a targeted update script (POST .../update)
// and once as the equivalent full-document replacement (PUT). Both
// paths run durably (fsync=never, so the log cost measured is bytes,
// not disk stalls); the WAL columns show what the delta records buy —
// the script path journals the script and its targets, the PUT path
// journals the whole document every time.

type updatesBenchResult struct {
	WriteFraction float64 `json:"write_fraction"`
	Mode          string  `json:"mode"` // "script" or "put"
	NsPerOp       float64 `json:"ns_op"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	Writes        int     `json:"writes"`
	WALBytes      uint64  `json:"wal_bytes"`
	WALPerWrite   float64 `json:"wal_bytes_per_write"`
}

func expUpdates() error {
	sam := subjects.Requester{User: "Sam", IP: "130.89.56.8", Host: "adminhost.lab.com"}
	mkSite := func() (*server.Site, string, error) {
		site, err := mkLabSite()
		if err != nil {
			return nil, "", err
		}
		if err := site.Auths.Add(authz.InstanceLevel,
			authz.MustParse(`<<Admin,*,*>,CSlab.xml:/laboratory,read,+,R>`)); err != nil {
			return nil, "", err
		}
		if err := site.GrantWrite(authz.InstanceLevel,
			`<<Admin,*,*>,CSlab.xml:/laboratory,write,+,R>`); err != nil {
			return nil, "", err
		}
		dir, err := os.MkdirTemp("", "xsbench-updates-")
		if err != nil {
			return nil, "", err
		}
		if err := site.EnableDurability(dir, server.DurabilityOptions{
			Sync:          wal.SyncNever,
			SnapshotBytes: 1 << 30,
		}); err != nil {
			os.RemoveAll(dir)
			return nil, "", err
		}
		return site, dir, nil
	}

	// The logical edit alternates every manager's name between two
	// values: as a script it is one replace-text op; as a PUT it is the
	// full document with both names substituted.
	names := [2]string{"Ada Turing", "Grace Kahn"}
	scripts := [2]string{
		"replace-text //flname " + names[0],
		"replace-text //flname " + names[1],
	}
	fullDocs := [2]string{}
	for i, n := range names {
		s := strings.ReplaceAll(labexample.DocSource, "Ada Turing", n)
		fullDocs[i] = strings.ReplaceAll(s, "Bob Codd", n)
	}

	fractions := []float64{0.01, 0.10, 0.50}
	if quick {
		fractions = []float64{0.10, 0.50}
	}

	var results []updatesBenchResult
	fmt.Printf("%-8s %-8s %-12s %-12s %-10s %-12s %-14s\n",
		"writes", "mode", "ns/op", "ops/sec", "writes", "wal bytes", "bytes/write")
	for _, f := range fractions {
		period := int(1 / f)
		for _, mode := range []string{"script", "put"} {
			site, dir, err := mkSite()
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			writes, i := 0, 0
			ctx := context.Background()
			br := testing.Benchmark(func(b *testing.B) {
				for ; b.Loop(); i++ {
					if i%period == 0 {
						var err error
						if mode == "script" {
							err = site.ApplyUpdate(ctx, sam, labexample.DocURI, scripts[writes%2])
						} else {
							err = site.Update(sam, labexample.DocURI, fullDocs[writes%2])
						}
						if err != nil {
							b.Fatal(err)
						}
						writes++
						continue
					}
					if _, err := site.Process(sam, labexample.DocURI); err != nil {
						b.Fatal(err)
					}
				}
			})
			st := site.WALStats()
			if err := site.CloseDurability(); err != nil {
				return err
			}
			r := updatesBenchResult{
				WriteFraction: f,
				Mode:          mode,
				NsPerOp:       float64(br.NsPerOp()),
				OpsPerSec:     1e9 / float64(br.NsPerOp()),
				Writes:        writes,
				WALBytes:      st.AppendedBytes,
			}
			if writes > 0 {
				r.WALPerWrite = float64(st.AppendedBytes) / float64(writes)
			}
			results = append(results, r)
			fmt.Printf("%-8s %-8s %-12.0f %-12.0f %-10d %-12d %-14.0f\n",
				fmt.Sprintf("%.0f%%", f*100), mode, r.NsPerOp, r.OpsPerSec,
				r.Writes, r.WALBytes, r.WALPerWrite)
		}
	}
	fmt.Println("(each write is the same logical edit — retitle every manager — expressed")
	fmt.Println(" as a one-op update script or as the equivalent whole-document PUT; both")
	fmt.Println(" run the full secure write path durably with fsync=never. The script path")
	fmt.Println(" journals a delta record, the PUT path the entire document.)")

	return writeJSON(results)
}
