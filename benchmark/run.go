package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runFile is what `benchmark run -json` writes and `benchmark compare`
// reads: every driver-mode run's record, under the environment of the first.
type runFile struct {
	Environment environment `json:"environment"`
	Runs        []record    `json:"runs"`
}

// runAll drives the workloads through driver mode, each run in a process of
// its own so that set-up time and peak memory are the workload's alone. It
// relays what they print and fails if any check failed.
func runAll(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark run", flag.ContinueOnError)
	only := fs.String("workload", "", "run this workload only")
	seed := fs.Int64("seed", 1, "seed of the first run; run r uses seed+r")
	seconds := fs.Float64("seconds", 10, "how long each run measures")
	runs := fs.Int("runs", 1, "timed runs per workload, each with its own seed")
	jsonOut := fs.String("json", "", "write every run's record here")
	traceOut := fs.String("trace", "", "also make the traced pass, and write its spans here as Chrome trace JSON")
	smoke := fs.Bool("smoke", false, "test size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var file runFile
	var merged chromeTrace
	bad := 0
	for pid, w := range workloads {
		if *only != "" && w.name != *only {
			continue
		}
		for r := 0; r < *runs+1; r++ {
			traced := r == *runs // the traced pass comes last, on the first seed
			if traced && *traceOut == "" {
				continue
			}
			child := []string{
				"--workload", w.name, "--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
				"--seed", strconv.FormatInt(*seed+int64(r%*runs), 10),
			}
			if *smoke {
				child = append(child, "--smoke")
			}
			spansFile := ""
			if traced {
				spansFile = *traceOut + "." + w.name + ".part"
				child = append(child, "--trace", "1", "--spans", spansFile)
			}
			rec, err := runChild(self, child, stdout)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if !rec.Correct {
				bad++
			}
			if len(file.Runs) == 0 {
				file.Environment = rec.Environment
			}
			file.Runs = append(file.Runs, rec)
			if traced {
				part, err := readChrome(spansFile, pid+1)
				if err != nil {
					return err
				}
				merged.TraceEvents = append(merged.TraceEvents, part...)
				merged.Environment = rec.Environment
			}
		}
	}
	if len(file.Runs) == 0 {
		return fmt.Errorf("unknown workload %q", *only)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		merged.Workload = "all"
		if *only != "" {
			merged.Workload = *only
		}
		if err := writeChrome(*traceOut, merged); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d run(s) failed an output check", bad)
	}
	return nil
}

// runChild runs one driver-mode process to completion, relays its readable
// lines and returns the record it printed.
func runChild(self string, args []string, stdout io.Writer) (record, error) {
	var rec record
	var out bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return rec, err
	}
	found := false
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "record "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "record ")), &rec); err != nil {
				return rec, fmt.Errorf("parse record: %w", err)
			}
			found = true
		case strings.HasPrefix(line, "{"):
			// the driver's result line, a subset of the record
		default:
			fmt.Fprintln(stdout, line)
		}
	}
	if !found {
		return rec, errors.New("the run printed no record")
	}
	return rec, sc.Err()
}

// readChrome loads one run's span file, moves its events to process pid and
// removes the file.
func readChrome(path string, pid int) ([]chromeEvent, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tr chromeTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	for i := range tr.TraceEvents {
		tr.TraceEvents[i].Pid = pid
	}
	return tr.TraceEvents, os.Remove(path)
}
