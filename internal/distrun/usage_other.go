//go:build !linux

package distrun

import "os"

func (u *WorkerUsage) add(*os.ProcessState) {}
