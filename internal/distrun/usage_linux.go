package distrun

import (
	"os"
	"syscall"
	"time"
)

func (u *WorkerUsage) add(ps *os.ProcessState) {
	ru := ps.SysUsage().(*syscall.Rusage) // always a Rusage on Linux
	u.UserCPU += time.Duration(ru.Utime.Nano())
	u.SysCPU += time.Duration(ru.Stime.Nano())
	u.MinorFaults += int64(ru.Minflt)
	u.MaxRSSBytes = max(u.MaxRSSBytes, int64(ru.Maxrss)<<10) // Linux reports KiB
}
