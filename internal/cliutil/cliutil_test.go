package cliutil

import (
	"reflect"
	"testing"
)

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"0":      0,
		"123":    123,
		"123B":   123,
		"1KB":    1 << 10,
		"512MB":  512 << 20,
		"16GB":   16 << 30,
		"1.5GB":  3 << 29,
		"2TB":    2 << 40,
		" 4 GB ": 4 << 30,
		"4gb":    4 << 30,
	}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil {
			t.Errorf("ParseSize(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseSize(%q) = %d, want %d", in, got, want)
		}
	}
	for _, bad := range []string{"", "GB", "x12MB", "-4GB", "12QB"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) accepted", bad)
		}
	}
}

func TestKVFlag(t *testing.T) {
	tests := []struct {
		name    string
		sets    []string
		want    map[string]string
		wantErr bool
		str     string
	}{
		{name: "empty flag", sets: nil, want: nil, str: ""},
		{name: "single pair", sets: []string{"a=1"}, want: map[string]string{"a": "1"}, str: "a=1"},
		{
			name: "repeated flag accumulates",
			sets: []string{"io.sort.mb=1", "io.sort.factor=2"},
			want: map[string]string{"io.sort.mb": "1", "io.sort.factor": "2"},
			str:  "io.sort.factor=2 io.sort.mb=1",
		},
		{
			name: "repeated key last wins",
			sets: []string{"a=1", "a=2"},
			want: map[string]string{"a": "2"},
			str:  "a=2",
		},
		{
			name: "value may contain equals",
			sets: []string{"expr=x=y"},
			want: map[string]string{"expr": "x=y"},
			str:  "expr=x=y",
		},
		{name: "empty value allowed", sets: []string{"a="}, want: map[string]string{"a": ""}, str: "a="},
		{name: "missing equals", sets: []string{"novalue"}, wantErr: true},
		{name: "empty key", sets: []string{"=1"}, wantErr: true},
		{name: "whitespace key", sets: []string{"  =1"}, wantErr: true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var f KVFlag
			var err error
			for _, s := range tc.sets {
				if err = f.Set(s); err != nil {
					break
				}
			}
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Set(%q) accepted", tc.sets)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := f.Map(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Map() = %v, want %v", got, tc.want)
			}
			if got := f.String(); got != tc.str {
				t.Errorf("String() = %q, want %q", got, tc.str)
			}
		})
	}
	// A nil *KVFlag must render (flag's -help path calls String on a zero
	// Value via reflection).
	var nilF *KVFlag
	if nilF.String() != "" {
		t.Error("nil KVFlag String() not empty")
	}
}
