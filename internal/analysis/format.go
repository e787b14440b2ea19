package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// RelPosition rewrites an absolute diagnostic filename relative to
// root, leaving foreign paths untouched.
func RelPosition(root, filename string) string {
	if root == "" || !filepath.IsAbs(filename) {
		return filename
	}
	rel, err := filepath.Rel(root, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filename
	}
	return filepath.ToSlash(rel)
}

// WritePlain prints diagnostics in the classic compiler format
//
//	file:line:col: rule: message
//
// Suppressed findings are hidden unless showSuppressed is set, in
// which case they are annotated with the waiver's reason. It returns
// the number of lines written.
func WritePlain(w io.Writer, root string, diags []Diagnostic, showSuppressed bool) int {
	n := 0
	for _, d := range diags {
		if d.Suppressed && !showSuppressed {
			continue
		}
		suffix := ""
		if d.Suppressed {
			suffix = fmt.Sprintf(" (suppressed: %s)", d.Reason)
		}
		fmt.Fprintf(w, "%s:%d:%d: %s: %s%s\n",
			RelPosition(root, d.Position.Filename), d.Position.Line, d.Position.Column,
			d.Rule, d.Message, suffix)
		n++
	}
	return n
}

// jsonDiagnostic is the stable wire form of one finding.
type jsonDiagnostic struct {
	Rule       string `json:"rule"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Package    string `json:"package,omitempty"`
	Func       string `json:"func,omitempty"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

// millis converts a duration to fractional milliseconds, the unit
// both stats renderings use.
func millis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// WriteStats renders the -stats table in plain text: the load phase
// (wall time, module and standard-library packages type-checked) and
// the fact-build time first, then each rule's summed per-package wall time and finding
// count in suite order (timing is nondeterministic; everything else on
// the row is not), then the phase-2 parallelism summary: real elapsed
// time under N workers next to the sequential cost the per-rule rows
// add up to.
func WriteStats(w io.Writer, stats *RunStats) {
	if stats == nil {
		return
	}
	fmt.Fprintf(w, "load: %s\n", loadLine(stats.Load))
	fmt.Fprintf(w, "fact build: %.1fms\n", millis(stats.FactBuild))
	for _, rs := range stats.Rules {
		fmt.Fprintf(w, "%-12s %8.1fms  %d finding(s)\n", rs.Rule, millis(rs.Time), rs.Findings)
	}
	fmt.Fprintf(w, "rule phase: %.1fms wall on %d worker(s), %.1fms sequential\n",
		millis(stats.RuleWall), stats.Workers, millis(stats.RuleSeq))
}

// WriteStatsMarkdown renders the -stats table for a CI step summary.
func WriteStatsMarkdown(w io.Writer, stats *RunStats) {
	if stats == nil {
		return
	}
	fmt.Fprintf(w, "\n### pbcheck timing\n\n")
	fmt.Fprintf(w, "load: %s\n\n", loadLine(stats.Load))
	fmt.Fprintf(w, "fact build: %.1fms\n\n", millis(stats.FactBuild))
	fmt.Fprintf(w, "| Rule | Time | Findings |\n|---|---:|---:|\n")
	for _, rs := range stats.Rules {
		fmt.Fprintf(w, "| %s | %.1fms | %d |\n", rs.Rule, millis(rs.Time), rs.Findings)
	}
	fmt.Fprintf(w, "\nrule phase: %.1fms wall on %d worker(s), %.1fms sequential\n",
		millis(stats.RuleWall), stats.Workers, millis(stats.RuleSeq))
}

// loadLine summarizes the load phase for both stats renderings.
func loadLine(ls LoadStats) string {
	return fmt.Sprintf("%.1fms, %d module + %d std package(s)", millis(ls.Wall), ls.Module, ls.Std)
}

// jsonRuleStat is the wire form of one analyzer's timing row.
type jsonRuleStat struct {
	Rule     string  `json:"rule"`
	Millis   float64 `json:"ms"`
	Findings int     `json:"findings"`
}

// jsonStats is the optional "stats" member of the -json document.
type jsonStats struct {
	LoadMillis      float64        `json:"load_ms"`
	FactBuildMillis float64        `json:"fact_build_ms"`
	Rules           []jsonRuleStat `json:"rules"`
	RuleWallMillis  float64        `json:"rule_wall_ms"`
	RuleSeqMillis   float64        `json:"rule_sequential_ms"`
	Workers         int            `json:"workers"`
}

// jsonReport is the top-level -json document: the findings plus the
// counts CI dashboards need without re-deriving them. Stats appears
// only under -stats.
type jsonReport struct {
	Findings   int              `json:"findings"`
	Suppressed int              `json:"suppressed"`
	Diags      []jsonDiagnostic `json:"diagnostics"`
	Stats      *jsonStats       `json:"stats,omitempty"`
}

// WriteJSON emits every diagnostic — suppressed ones included and
// marked, so the CI artifact records the full waiver ledger — as one
// indented JSON document. A non-nil stats adds the per-rule timing
// block.
func WriteJSON(w io.Writer, root string, diags []Diagnostic, stats *RunStats) error {
	report := jsonReport{Diags: []jsonDiagnostic{}}
	if stats != nil {
		js := &jsonStats{
			LoadMillis:      millis(stats.Load.Wall),
			FactBuildMillis: millis(stats.FactBuild),
			RuleWallMillis:  millis(stats.RuleWall),
			RuleSeqMillis:   millis(stats.RuleSeq),
			Workers:         stats.Workers,
		}
		for _, rs := range stats.Rules {
			js.Rules = append(js.Rules, jsonRuleStat{
				Rule:     rs.Rule,
				Millis:   millis(rs.Time),
				Findings: rs.Findings,
			})
		}
		report.Stats = js
	}
	for _, d := range diags {
		if d.Suppressed {
			report.Suppressed++
		} else {
			report.Findings++
		}
		report.Diags = append(report.Diags, jsonDiagnostic{
			Rule:       d.Rule,
			File:       RelPosition(root, d.Position.Filename),
			Line:       d.Position.Line,
			Col:        d.Position.Column,
			Package:    d.Package,
			Func:       d.Func,
			Message:    d.Message,
			Suppressed: d.Suppressed,
			Reason:     d.Reason,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// WriteMarkdown renders the CI step-summary view: a per-rule count
// table (active / waived), the list of active findings, and the
// waiver ledger with reasons. Deterministic: rows follow the
// already-sorted diagnostic order, rules sort lexically.
func WriteMarkdown(w io.Writer, root string, diags []Diagnostic) {
	type counts struct{ active, waived int }
	byRule := make(map[string]*counts)
	var rules []string
	for _, d := range diags {
		c, ok := byRule[d.Rule]
		if !ok {
			c = &counts{}
			byRule[d.Rule] = c
			rules = append(rules, d.Rule)
		}
		if d.Suppressed {
			c.waived++
		} else {
			c.active++
		}
	}
	sort.Strings(rules)

	fmt.Fprintf(w, "### pbcheck findings\n\n")
	fmt.Fprintf(w, "| Rule | Active | Waived |\n|---|---:|---:|\n")
	var total counts
	for _, rule := range rules {
		c := byRule[rule]
		fmt.Fprintf(w, "| %s | %d | %d |\n", rule, c.active, c.waived)
		total.active += c.active
		total.waived += c.waived
	}
	fmt.Fprintf(w, "| **total** | **%d** | **%d** |\n", total.active, total.waived)

	if total.active > 0 {
		fmt.Fprintf(w, "\n#### Active findings\n\n")
		for _, d := range diags {
			if d.Suppressed {
				continue
			}
			fmt.Fprintf(w, "- `%s:%d` **%s**: %s\n",
				RelPosition(root, d.Position.Filename), d.Position.Line, d.Rule, d.Message)
		}
	}
	if total.waived > 0 {
		fmt.Fprintf(w, "\n#### Waivers\n\n| Location | Rule | Reason |\n|---|---|---|\n")
		for _, d := range diags {
			if !d.Suppressed {
				continue
			}
			fmt.Fprintf(w, "| `%s:%d` | %s | %s |\n",
				RelPosition(root, d.Position.Filename), d.Position.Line, d.Rule, d.Reason)
		}
	}
}
