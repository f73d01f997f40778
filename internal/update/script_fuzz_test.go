package update

import "testing"

// FuzzParseScript holds the script parser to its two contracts over
// arbitrary client input (POST /docs/{uri}/update bodies): it never
// panics, and a script it accepts canonicalizes to a fixpoint — the
// canonical form, which is what the write-ahead log journals and replay
// re-parses, parses again to the same canonical form.
func FuzzParseScript(f *testing.F) {
	for _, src := range []string{
		jsonScript, compactScript,
		"replace-text /a/b hello update world",
		"set-attr /a title=two words",
		"insert-before //b <c x=\"1\">t<d/></c>\nreplace-node /a/e <f/>\ninsert-after /a text",
	} {
		f.Add(src)
	}
	for _, tc := range rejectedScripts {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseScript(src)
		if err != nil {
			return
		}
		canon := s.Canonical()
		again, err := ParseScript(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted script %q does not re-parse: %v", canon, src, err)
		}
		if got := again.Canonical(); got != canon {
			t.Fatalf("canonical form is not a fixpoint:\nfirst:  %s\nsecond: %s", canon, got)
		}
	})
}
