package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"pthreads/internal/fabric"
	"pthreads/internal/trace"
	"pthreads/internal/vtime"
)

// The fleet observability section of ptreport (-fleet): the fleet-echo
// scenario run under the full plane — distributed spans, rollups, and
// the fleet watchdogs with thresholds tight enough that the
// scenario's scripted server pause trips them. The section ends with
// the plane's two contracts, checked live: the span stream is
// byte-identical across two runs, and a spans-off run of the same
// scenario produces the same schedule fingerprint (observation never
// perturbs).

// fleetObsConfig is the plane configuration the section reports under.
func fleetObsConfig() fabric.ObsConfig {
	return fabric.ObsConfig{
		Spans:           true,
		Rollup:          true,
		Interval:        vtime.Millisecond,
		GrantStarvation: 300 * vtime.Microsecond,
		LeaseHold:       400 * vtime.Microsecond,
		WaitCycle:       true,
	}
}

// spanHash fingerprints the report's span and wire-message streams.
func spanHash(r *fabric.ObsReport) string {
	h := sha256.New()
	for hi, hs := range r.Spans {
		fmt.Fprintf(h, "host %d\n", hi)
		for _, sp := range hs {
			fmt.Fprintf(h, "%016x %016x %016x %016x t%d %s %d %d %q\n",
				sp.ID, sp.Trace, sp.Parent, sp.LinkMsg, sp.Thread, sp.Name,
				int64(sp.Start), int64(sp.End), sp.Err)
		}
	}
	for _, m := range r.Msgs {
		fmt.Fprintf(h, "msg %016x f%d %d>%d %016x/%016x %d %d %s %v\n",
			m.Msg, m.Flow, m.Src, m.Dst, m.Trace, m.Span, int64(m.Dep), int64(m.At), m.Kind, m.Delivered)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// FormatFleetObs renders the fleet observability section.
func FormatFleetObs() (string, error) {
	sc := fabric.FleetScenarioByName("fleet-echo")
	if sc == nil {
		return "", fmt.Errorf("fleet-echo scenario missing")
	}
	oc := fleetObsConfig()
	first := fabric.Observe(*sc, oc)
	if first.Failure != "" {
		return "", fmt.Errorf("fleet-echo under observability: %s", first.Failure)
	}
	second := fabric.Observe(*sc, oc)
	bare := fabric.Observe(*sc, fabric.ObsConfig{})

	var b strings.Builder
	b.WriteString("## Fleet observability plane (DESIGN.md §14)\n\n")
	fmt.Fprintf(&b, "Scenario fleet-echo (%s) under spans+rollups+watchdogs;\n", sc.Desc)
	fmt.Fprintf(&b, "thresholds: grant-starvation %dus, lease-hold %dus.\n\n",
		int64(oc.GrantStarvation)/1000, int64(oc.LeaseHold)/1000)
	b.WriteString(first.Obs.Format())
	b.WriteString("\n  contracts\n")
	h1, h2 := spanHash(first.Obs), spanHash(second.Obs)
	if h1 != h2 {
		return "", fmt.Errorf("span stream not deterministic: %s vs %s", h1, h2)
	}
	fmt.Fprintf(&b, "  span stream deterministic across two runs: hash %s\n", h1)
	if err := trace.ValidateSpans(first.Obs.Spans, first.Obs.Msgs); err != nil {
		return "", err
	}
	nspans := 0
	for _, hs := range first.Obs.Spans {
		nspans += len(hs)
	}
	fmt.Fprintf(&b, "  span stream well-formed: %d spans validate (closed, rooted, parents reachable)\n", nspans)
	if bare.Fingerprint != first.Fingerprint || bare.TraceHash != first.TraceHash {
		return "", fmt.Errorf("observability perturbed the schedule: %s/%s with, %s/%s without",
			first.Fingerprint, first.TraceHash, bare.Fingerprint, bare.TraceHash)
	}
	fmt.Fprintf(&b, "  schedule unperturbed by observation: fingerprint %s with and without the plane\n",
		first.Fingerprint)
	return b.String(), nil
}
