package conformance

import (
	"os"
	"strings"
	"testing"

	"eac/internal/admission"
	"eac/internal/experiments"
)

// TestPolicyGoldenDivergenceFails proves the per-policy goldens are not
// vacuous: perturbing a policy parameter (here the token bucket's refill
// rate, which changes how many flows the rate limiter blocks) must fail
// the policy_thrash golden diff with a report naming a drifted column.
func TestPolicyGoldenDivergenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("golden perturbation re-runs an experiment; skipped in -short")
	}
	if *update {
		t.Skip("perturbation check is meaningless while rewriting goldens")
	}
	// A starved token bucket (tenth the refill rate) admits far fewer
	// flows than the swept configuration. The probing rows keep their
	// pinned policies and stay within tolerance; the perturbation must
	// surface in the token-bucket row.
	o := experiments.Conformance()
	e, err := experiments.Lookup("policy_thrash")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the unperturbed rerun matches its golden (same premise as
	// TestGoldenFigures, restated here so a broken baseline fails loudly
	// rather than masking the divergence check).
	want, err := os.ReadFile(goldenPath("policy_thrash"))
	if err != nil {
		t.Fatal(err)
	}
	if err := Compare(string(want), tbl.CSV(), toleranceFor("policy_thrash")); err != nil {
		t.Fatalf("unperturbed rerun drifted from golden: %v", err)
	}

	perturbed := perturbedThrashCSV(t)
	diffErr := Compare(string(want), perturbed, toleranceFor("policy_thrash"))
	if diffErr == nil {
		t.Fatal("perturbed token-bucket rate matched the golden; the policy goldens are not sensitive")
	}
	msg := diffErr.Error()
	if !strings.Contains(msg, "blocking") && !strings.Contains(msg, "utilization") {
		t.Fatalf("diff report does not name a drifted column:\n%s", msg)
	}
	t.Logf("perturbation correctly rejected:\n%s", msg)
}

// perturbedThrashCSV reruns policy_thrash with the token-bucket row's
// refill rate slashed via a table rewrite of its config — implemented by
// re-running the experiment with a starved bucket patched in through the
// policy sweep itself (the experiment pins its policies, so we rebuild
// the row set manually from the public pieces it uses).
func perturbedThrashCSV(t *testing.T) string {
	t.Helper()
	o := experiments.Conformance()
	tbl, err := experiments.PolicyThrashWith(o, func(pc admission.PolicyConfig) admission.PolicyConfig {
		if pc.Kind == admission.PolicyTokenBucket {
			pc.BucketRate /= 10
		}
		return pc
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl.CSV()
}
