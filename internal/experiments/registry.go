package experiments

import (
	"fmt"

	"eac/internal/admission"
)

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		figure1, figure2, figure2Hybrid, figure3,
		highLoad("figure4", admission.DropInBand),
		highLoad("figure5", admission.DropOutOfBand),
		highLoad("figure6", admission.MarkInBand),
		highLoad("figure7", admission.MarkOutOfBand),
		figure8, figure9, table3, table4, table5, table6, figure11,
		policySweep, policyThrash, flashCrowd,
	}
}

// Lookup resolves an experiment by ID.
func Lookup(id string) (Experiment, error) {
	for _, ex := range All() {
		if ex.ID == id {
			return ex, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q", id)
}
