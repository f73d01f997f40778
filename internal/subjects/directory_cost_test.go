package subjects

import (
	"fmt"
	"runtime"
	"testing"
)

// liveHeap returns the live heap after two collections.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDirectoryUserLiveHeap pins what one user record keeps alive. The
// benchmark site declares 10,000 users with one or two groups each.
// Measured by this test (Go 1.24, linux/amd64), a user held about
// 320 B while its direct groups were a map of its own, and about 100 B
// as a slice of the groups' shared name strings in the directory's one
// user map. The names themselves are the caller's and are not counted.
func TestDirectoryUserLiveHeap(t *testing.T) {
	const n = 10000
	const budget = 160
	names := make([]string, n)
	groups := make([][]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("user%05d", i)
		groups[i] = []string{fmt.Sprintf("g%d", i%40)}
		if i%2 == 0 {
			groups[i] = append(groups[i], fmt.Sprintf("g%d", 40+i%7))
		}
	}
	before := liveHeap()
	d := NewDirectory()
	for i, u := range names {
		if err := d.AddUser(u, groups[i]...); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(names)
	runtime.KeepAlive(groups)
	if !d.MemberOf(names[2], "g42") || d.MemberOf(names[1], "g42") {
		t.Fatal("memberships lost")
	}
	per := (int64(after) - int64(before)) / n
	t.Logf("live heap per user: %d B", per)
	if per > budget {
		t.Errorf("each user keeps %d B live, over the %d B budget: does every user own a map?", per, budget)
	}
}
