package enhance

import "testing"

// FuzzParseSpec: the label parser behind -enhance and the manifest's
// enhancement key never panics; text it accepts is a valid Spec whose
// canonical form is that text, and text it rejects yields the zero
// Spec.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"base",
		"precompute-128",
		"valuereuse-64",
		"precompute-0",
		"precompute-0128",
		"precompute-+128",
		"valuereuse--1",
		"bogus-1",
		"-128",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec(text)
		if err != nil {
			if s != (Spec{}) {
				t.Fatalf("rejected %q but returned %+v", text, s)
			}
			return
		}
		if got := s.String(); got != text {
			t.Fatalf("accepted %q as %+v, whose canonical form is %q", text, s, got)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted %q as invalid %+v: %v", text, s, err)
		}
	})
}
