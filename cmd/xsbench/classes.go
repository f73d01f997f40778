package main

import (
	"fmt"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/server"
	"xmlsec/internal/subjects"
	"xmlsec/internal/workload"
)

// E15 — the subject-equivalence class index: steady-state serve cost
// and cache footprint as the requester population grows from 10² to
// 10⁶ users under a FIXED policy. A view depends on a requester only
// through the set of authorizations applicable to it, so the policy
// below — 8 role groups × 3 IP subnets × 2 symbolic domains — admits
// at most 48 distinct applicability sets however many users exist.
// With the view cache keyed per class instead of per requester triple,
// both the warm-request cost and the number of cached entries should
// stay flat across four orders of magnitude of population; that
// flatness is the experiment's claim.

// classesBenchResult is one measured population row, and the record
// format of BENCH_classes.json.
type classesBenchResult struct {
	Users    int     `json:"users"`
	Sampled  int     `json:"sampled_requesters"`
	Classes  int     `json:"classes"`
	Entries  int     `json:"cache_entries"`
	HitRate  float64 `json:"hit_rate"`
	NsPerOp  float64 `json:"ns_op"`
	BytesOp  int64   `json:"bytes_op"`
	AllocsOp int64   `json:"allocs_op"`
}

const classesURI = "class.xml"

// classesGroups/Subnets/Domains shape the fixed policy; the product
// bounds the class count at 48 whatever the population size.
const (
	classesGroups  = 8
	classesSubnets = 3
	classesDomains = 2
)

// classesRequester derives the i-th member of the population: its
// group, subnet, and symbolic domain are all functions of i, so
// regenerating a sample never needs the full population in memory.
func classesRequester(i int) subjects.Requester {
	return subjects.Requester{
		User: fmt.Sprintf("u%d", i),
		IP:   fmt.Sprintf("10.%d.%d.%d", (i/classesGroups)%classesSubnets, (i/256)%256, i%256),
		Host: fmt.Sprintf("h%d.dom%d.org", i, (i/24)%classesDomains),
	}
}

// classesSite assembles a site with the fixed policy over a population
// of n users: user u<i> is a member of group g<i mod 8>.
func classesSite(n int) (*server.Site, error) {
	site := server.NewSite()
	dir := subjects.NewDirectory()
	for g := 0; g < classesGroups; g++ {
		if err := dir.AddGroup(fmt.Sprintf("g%d", g)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		if err := dir.AddUser(fmt.Sprintf("u%d", i), fmt.Sprintf("g%d", i%classesGroups)); err != nil {
			return nil, err
		}
	}
	site.Directory = dir
	site.Engine.Hierarchy.Dir = dir

	doc := workload.GenDocument(workload.DocConfig{Depth: 3, Fanout: 4, Attrs: 2, Seed: 41})
	if err := site.Docs.AddDocument(classesURI, doc.String()); err != nil {
		return nil, err
	}

	// The fixed policy: one subject per group, subnet, and domain, with
	// alternating signs over distinct subtrees, plus a Public grant on
	// the root so every view is non-empty.
	tuples := []string{fmt.Sprintf(`<<Public,*,*>,%s:/root,read,+,R>`, classesURI)}
	for g := 0; g < classesGroups; g++ {
		sign := "+"
		if g%2 == 1 {
			sign = "-"
		}
		tuples = append(tuples, fmt.Sprintf(`<<g%d,*,*>,%s:/root/%s,read,%s,R>`,
			g, classesURI, workload.ElemName(1, g%3), sign))
	}
	for s := 0; s < classesSubnets; s++ {
		sign := "+"
		if s%2 == 1 {
			sign = "-"
		}
		tuples = append(tuples, fmt.Sprintf(`<<Public,10.%d.*,*>,%s://%s,read,%s,R>`,
			s, classesURI, workload.ElemName(2, s%3), sign))
	}
	for d := 0; d < classesDomains; d++ {
		sign := "-"
		if d%2 == 1 {
			sign = "+"
		}
		tuples = append(tuples, fmt.Sprintf(`<<Public,*,*.dom%d.org>,%s://%s,read,%s,L>`,
			d, classesURI, workload.ElemName(3, d%3), sign))
	}
	for _, t := range tuples {
		if err := site.Auths.Add(authz.InstanceLevel, authz.MustParse(t)); err != nil {
			return nil, err
		}
	}
	site.EnableViewCache(256)
	return site, nil
}

func expClasses() error {
	populations := []int{100, 1_000, 10_000, 100_000, 1_000_000}
	if quick {
		populations = []int{100, 1_000, 10_000}
	}
	const maxSample = 4096

	var results []classesBenchResult
	fmt.Printf("%-10s %-9s %-9s %-9s %-9s %-14s %-14s %-12s\n",
		"users", "sampled", "classes", "entries", "hit-rate", "ns/op", "bytes/op", "allocs/op")
	for _, n := range populations {
		site, err := classesSite(n)
		if err != nil {
			return err
		}
		sampled := n
		if sampled > maxSample {
			sampled = maxSample
		}
		// A prefix sample suffices: group, subnet, and domain all cycle
		// with period ≤ 48, so the first 48 requesters already realize
		// every combination (strided sampling would alias — an even
		// stride visits only even groups).
		reqs := make([]subjects.Requester, sampled)
		for i := range reqs {
			reqs[i] = classesRequester(i)
		}
		// Warm: every class computes its view once.
		for _, rq := range reqs {
			if _, err := site.Process(rq, classesURI); err != nil {
				return fmt.Errorf("population %d: warming %s: %w", n, rq, err)
			}
		}
		warmHits, warmMisses := site.CacheStats()
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := site.Process(reqs[i%len(reqs)], classesURI); err != nil {
					b.Fatal(err)
				}
			}
		})
		hits, misses := site.CacheStats()
		hitRate := 0.0
		if d := (hits - warmHits) + (misses - warmMisses); d > 0 {
			hitRate = float64(hits-warmHits) / float64(d)
		}
		r := classesBenchResult{
			Users:    n,
			Sampled:  sampled,
			Classes:  site.ClassStats().Classes,
			Entries:  site.CacheEntries(),
			HitRate:  hitRate,
			NsPerOp:  float64(br.NsPerOp()),
			BytesOp:  br.AllocedBytesPerOp(),
			AllocsOp: br.AllocsPerOp(),
		}
		results = append(results, r)
		fmt.Printf("%-10d %-9d %-9d %-9d %-9.3f %-14.0f %-14d %-12d\n",
			r.Users, r.Sampled, r.Classes, r.Entries, r.HitRate, r.NsPerOp, r.BytesOp, r.AllocsOp)
	}
	first, last := results[0], results[len(results)-1]
	fmt.Printf("\npopulation grew %dx; warm serve cost changed %.2fx; cache entries %d → %d\n",
		last.Users/first.Users, last.NsPerOp/first.NsPerOp, first.Entries, last.Entries)
	fmt.Println("(fixed policy: 8 groups × 3 subnets × 2 domains bounds the applicability")
	fmt.Println(" sets at 48; the cache holds one entry per CLASS, not per requester, so")
	fmt.Println(" cost and footprint stay flat while the population spans four decades)")

	return writeJSON(results)
}
