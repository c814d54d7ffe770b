package prodsys

// MatcherCase names a per-matcher subtest and the matcher it runs.
type MatcherCase struct {
	Name    string
	Matcher Matcher
}

// MatcherCases is one case per Matchers() entry plus "rete-shared", the
// name the prefix-shared Rete network ran under while "rete" was an
// unshared compile. "rete" compiles the shared network now; the extra
// case runs it under its former name, so per-matcher subtests keep the
// names they had before the two compiles merged.
func MatcherCases() []MatcherCase {
	var out []MatcherCase
	for _, m := range Matchers() {
		out = append(out, MatcherCase{string(m), m})
	}
	return append(out, MatcherCase{"rete-shared", MatcherRete})
}
