package sampling

import "testing"

// FuzzParseSpec: the spec decoder never panics, and on anything it
// accepts, parse→String→parse is a fixed point — the property campaign
// manifests rely on to rebuild the identical schedule on every worker.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"est=uniform",
		"est=stratified,region=500,frac=0.25,warm=0,fwarm=2000,seed=9,strata=6,set=3",
		"est=rankedset,region=2000,frac=0.08,warm=-1,fwarm=-1,seed=1,strata=4,set=4",
		"est=uniform,bogus=1",
		"est=uniform,frac=2",
		"est=uniform,frac=1e-300",
		"",
		"stratified",
		"region=2000,frac=0.08,fwarm=24000,seed=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec(text)
		if err != nil {
			return
		}
		canon := s.String()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted %q rejected: %v", canon, text, err)
		}
		if again != s || again.String() != canon {
			t.Fatalf("not a fixed point: %q -> %+v -> %q -> %+v", text, s, canon, again)
		}
	})
}
