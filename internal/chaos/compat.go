package chaos

import (
	"io"

	"hibernator/internal/scenario"
)

// Scenario is the scenario model, now defined in internal/scenario. The
// alias and ParseRepro below stay because the benchmark harness
// (hibbench/, a separate module) still names them; code in this module
// uses the scenario package directly.
type Scenario = scenario.Scenario

// ParseRepro forwards to scenario.ParseRepro, for the same reason as the
// Scenario alias.
func ParseRepro(r io.Reader) (*scenario.Scenario, error) { return scenario.ParseRepro(r) }
