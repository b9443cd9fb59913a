package mrcheck

import (
	"fmt"
	"os"
	"strings"

	"mrmicro/internal/microbench"
)

// Corpus files (*.repro) store one past-failing configuration in flag form,
// whitespace-separated with '#' comments — the same vocabulary a repro line
// carries after `mrcheck -replay --`, but unquoted so no shell is involved.

// LoadRepro reads one corpus file into the configuration it pins.
func LoadRepro(path string) (microbench.Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return microbench.Config{}, err
	}
	var args []string
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		args = append(args, strings.Fields(line)...)
	}
	if len(args) == 0 {
		return microbench.Config{}, fmt.Errorf("mrcheck: corpus file %s holds no flags", path)
	}
	cfg, err := microbench.ParseRepro(args)
	if err != nil {
		return microbench.Config{}, fmt.Errorf("mrcheck: corpus file %s: %w", path, err)
	}
	return cfg, nil
}
