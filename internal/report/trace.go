package report

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"viewupdate/internal/core"
)

// RenderTrace renders an explain trace as human-readable text: the
// request, the pipeline phase timings, every considered candidate with
// its verdict (and, for rejected ones, the violated criterion of §3),
// and a per-criterion rejection summary.
func RenderTrace(t *core.Trace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "explain trace: %s on %s\n", t.Request, t.View)
	fmt.Fprintf(&b, "  policy: %s; validity: V(DB') = U(V(DB)), save rows that follow an in-place replace of a non-root tuple (§5)\n", t.Policy)
	if len(t.Phases) > 0 {
		parts := make([]string, len(t.Phases))
		for i, p := range t.Phases {
			parts[i] = fmt.Sprintf("%s %s", p.Name, time.Duration(p.Nanos))
		}
		fmt.Fprintf(&b, "  phases: %s\n", strings.Join(parts, ", "))
	}
	if t.Err != "" {
		fmt.Fprintf(&b, "  error: %s\n", t.Err)
	}

	fmt.Fprintf(&b, "\ncandidates (%d considered, %d accepted):\n",
		len(t.Candidates), len(t.Accepted()))
	for i, c := range t.Candidates {
		verdict := c.Verdict
		switch c.Verdict {
		case core.VerdictRejected:
			verdict = fmt.Sprintf("REJECTED by criterion %d", c.RejectedBy)
		case core.VerdictInvalid:
			verdict = "INVALID"
		case core.VerdictAccepted:
			if c.Chosen {
				verdict = "accepted  <= chosen"
			}
		}
		fmt.Fprintf(&b, "%3d. [%s %s] %s\n", i+1, c.Source, c.Class, verdict)
		fmt.Fprintf(&b, "     %s\n", c.Translation)
		if len(c.Choices) > 0 {
			fmt.Fprintf(&b, "     choices: %s\n", strings.Join(c.Choices, ", "))
		}
		if c.Detail != "" {
			fmt.Fprintf(&b, "     %s\n", c.Detail)
		}
	}

	if rej := t.Rejections(); len(rej) > 0 {
		crits := make([]int, 0, len(rej))
		for k := range rej {
			crits = append(crits, k)
		}
		sort.Ints(crits)
		parts := make([]string, len(crits))
		for i, k := range crits {
			parts[i] = fmt.Sprintf("criterion %d: %d", k, rej[k])
		}
		fmt.Fprintf(&b, "\nrejections: %s\n", strings.Join(parts, ", "))
	}
	return b.String()
}

// TraceJSON renders the trace as indented JSON.
func TraceJSON(t *core.Trace) ([]byte, error) {
	return json.MarshalIndent(t, "", "  ")
}
