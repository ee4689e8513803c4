// Package lambda configures AWS Lambda on the shared per-request
// function service (platform.FaaS): Lambda's calibration, its "lambda"
// span/error prefix and chaos component, its "aws/lambda" RNG stream,
// and its memory rule — configurable memory in 128 MB steps. Cold/warm
// starts, the 256 KB synchronous payload limit, the 15-minute execution
// cap and billing on configured memory with 100 ms duration rounding
// are the shared service's, driven by platform.AWSParams.
package lambda

import (
	"fmt"

	"statebench/internal/obs/instr"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// New creates a Lambda service with the given calibration parameters,
// instrumented through hooks.
func New(k *sim.Kernel, params platform.AWSParams, hooks *instr.Hooks) *platform.FaaS {
	step := params.MemoryStepMB
	return platform.NewFaaS(k, "lambda", "aws/lambda", params.PerRequestParams, func(memMB int) error {
		if memMB <= 0 || memMB%step != 0 {
			return fmt.Errorf("memory %d MB must be a positive multiple of %d", memMB, step)
		}
		return nil
	}, hooks)
}
