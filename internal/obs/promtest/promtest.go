// Package promtest parses the Prometheus text exposition that
// obs.Registry.WritePrometheus writes, so that tests can read /v1/metrics
// back as families and samples. Only tests import it.
package promtest

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Sample is one parsed sample line of the Prometheus text format.
type Sample struct {
	// Name is the full sample name, including histogram suffixes
	// (_bucket/_sum/_count).
	Name   string
	Labels map[string]string
	Value  float64
}

// Family is one parsed metric family: the # HELP/# TYPE header plus the
// sample lines attached to it.
type Family struct {
	Name, Help, Type string
	Samples          []Sample
}

// Parse parses the subset of the Prometheus text exposition
// format (version 0.0.4) that Registry.WritePrometheus emits: # HELP and
// # TYPE headers followed by their samples. It verifies that every sample
// belongs to the family declared above it (allowing the _bucket/_sum/_count
// suffixes on histograms) and that histogram buckets are cumulative.
func Parse(r io.Reader) (map[string]*Family, error) {
	out := make(map[string]*Family)
	var cur *Family
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			if name == "" {
				return nil, fmt.Errorf("promtest: line %d: HELP without metric name", lineNo)
			}
			f, ok := out[name]
			if !ok {
				f = &Family{Name: name}
				out[name] = f
			}
			f.Help = help
			cur = f
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				return nil, fmt.Errorf("promtest: line %d: malformed TYPE line", lineNo)
			}
			f, ok := out[fields[0]]
			if !ok {
				f = &Family{Name: fields[0]}
				out[fields[0]] = f
			}
			f.Type = fields[1]
			cur = f
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("promtest: line %d: %w", lineNo, err)
		}
		if cur == nil || !sampleBelongsTo(cur, s.Name) {
			return nil, fmt.Errorf("promtest: line %d: sample %s outside its family", lineNo, s.Name)
		}
		cur.Samples = append(cur.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, f := range out {
		if f.Type == "histogram" {
			if err := checkHistogram(f); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func sampleBelongsTo(f *Family, sampleName string) bool {
	if sampleName == f.Name {
		return true
	}
	if f.Type != "histogram" {
		return false
	}
	rest, ok := strings.CutPrefix(sampleName, f.Name)
	return ok && (rest == "_bucket" || rest == "_sum" || rest == "_count")
}

// checkHistogram verifies that each series' buckets are cumulative and end in
// a +Inf bucket equal to its _count.
func checkHistogram(f *Family) error {
	type state struct {
		last  float64
		inf   float64
		seen  bool
		count float64
	}
	byKey := make(map[string]*state)
	keyOf := func(labels map[string]string) string {
		var b strings.Builder
		for k, v := range labels {
			if k == "le" {
				continue
			}
			fmt.Fprintf(&b, "%s=%s;", k, v)
		}
		return b.String()
	}
	for _, s := range f.Samples {
		st := byKey[keyOf(s.Labels)]
		if st == nil {
			st = &state{}
			byKey[keyOf(s.Labels)] = st
		}
		switch {
		case s.Name == f.Name+"_bucket":
			if s.Value < st.last {
				return fmt.Errorf("promtest: histogram %s buckets not cumulative", f.Name)
			}
			st.last = s.Value
			if s.Labels["le"] == "+Inf" {
				st.inf = s.Value
				st.seen = true
			}
		case s.Name == f.Name+"_count":
			st.count = s.Value
		}
	}
	for _, st := range byKey {
		if !st.seen {
			return fmt.Errorf("promtest: histogram %s missing +Inf bucket", f.Name)
		}
		if st.inf != st.count {
			return fmt.Errorf("promtest: histogram %s +Inf bucket %v != count %v", f.Name, st.inf, st.count)
		}
	}
	return nil
}

// parseSampleLine parses `name{k="v",...} value` (timestamp suffixes are not
// emitted by the registry and not accepted).
func parseSampleLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := 0
	for i < len(line) && !strings.ContainsRune("{ \t", rune(line[i])) {
		i++
	}
	s.Name = line[:i]
	if s.Name == "" {
		return s, fmt.Errorf("missing sample name")
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		j := 1
		for {
			// Label name.
			k := j
			for j < len(rest) && rest[j] != '=' && rest[j] != '}' {
				j++
			}
			if j >= len(rest) {
				return s, fmt.Errorf("unterminated label set")
			}
			if rest[j] == '}' { // empty or trailing comma
				j++
				break
			}
			name := strings.Trim(rest[k:j], ", \t")
			j++ // '='
			if j >= len(rest) || rest[j] != '"' {
				return s, fmt.Errorf("label %s: expected quoted value", name)
			}
			j++
			var val strings.Builder
			for j < len(rest) && rest[j] != '"' {
				if rest[j] == '\\' && j+1 < len(rest) {
					j++
					switch rest[j] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(rest[j])
					}
				} else {
					val.WriteByte(rest[j])
				}
				j++
			}
			if j >= len(rest) {
				return s, fmt.Errorf("label %s: unterminated value", name)
			}
			j++ // closing quote
			s.Labels[name] = val.String()
			if j < len(rest) && rest[j] == ',' {
				j++
				continue
			}
			if j < len(rest) && rest[j] == '}' {
				j++
				break
			}
			return s, fmt.Errorf("malformed label set after %s", name)
		}
		rest = rest[j:]
	}
	valStr := strings.TrimSpace(rest)
	if valStr == "" {
		return s, fmt.Errorf("sample %s: missing value", s.Name)
	}
	v, err := parsePromValue(valStr)
	if err != nil {
		return s, fmt.Errorf("sample %s: %w", s.Name, err)
	}
	s.Value = v
	return s, nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return strconv.ParseFloat("+Inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-Inf", 64)
	}
	return strconv.ParseFloat(s, 64)
}
