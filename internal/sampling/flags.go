package sampling

import (
	"flag"
	"strings"
)

// Flag is the -sample flag: a flag.Value that reads ParseSpec's text.
// Spec stays nil until the flag is set, so sampling is strictly
// opt-in.
type Flag struct{ Spec *Spec }

// String renders the canonical spec, or "" while the flag is unset.
func (f *Flag) String() string {
	if f.Spec == nil {
		return ""
	}
	return f.Spec.String()
}

// Set parses text with ParseSpec.
func (f *Flag) Set(text string) error {
	s, err := ParseSpec(text)
	if err != nil {
		return err
	}
	f.Spec = &s
	return nil
}

// RegisterFlag registers -sample on fs, so every CLI that offers
// sampling shares one flag and one spelling. The returned Flag is
// filled in when fs is parsed.
func RegisterFlag(fs *flag.FlagSet) *Flag {
	f := &Flag{}
	fs.Var(f, "sample", "sample the measured window instead of simulating it fully, with this `spec`: an estimator ("+
		strings.Join(Names(), ", ")+") or key=value text such as est=stratified,frac=0.2,strata=6 (keys est, region, frac, warm, fwarm, seed, strata, set)")
	return f
}
