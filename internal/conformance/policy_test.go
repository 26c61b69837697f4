package conformance

import (
	"os"
	"strings"
	"testing"

	"eac/internal/admission"
	"eac/internal/experiments"
	"eac/internal/scenario"
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
// refill rate cut tenfold through Options.Vary, which edits each point's
// config before it runs; the other rows run as declared.
func perturbedThrashCSV(t *testing.T) string {
	t.Helper()
	o := experiments.Conformance()
	o.Vary = func(c *scenario.Config) {
		if c.Policy.Kind == admission.PolicyTokenBucket {
			c.Policy.BucketRate /= 10
		}
	}
	e, err := experiments.Lookup("policy_thrash")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.CSV()
}
