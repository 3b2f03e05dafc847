package experiments

import "testing"

func TestIncrementalDeploymentFrontier(t *testing.T) { expectHeld(t, IncrementalDeployment) }
