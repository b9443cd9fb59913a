package microbench

import (
	"reflect"
	"testing"
)

// configFieldIsEnvOnly records, for every exported Config field, the decision
// Config.dataShape implements: true when the field only changes the
// environment a job is replayed in (points of a Sweep that differ there share
// one intermediate-data matrix), false when it is part of the data shape.
// A field added to Config must be added here, and to dataShape if true.
var configFieldIsEnvOnly = map[string]bool{
	"Pattern": false, "KeySize": false, "ValueSize": false, "PairsPerMap": false, "DataType": false,
	"NumMaps": false, "NumReduces": false, "Combine": false, "Seed": false,
	"Workload": false, "InputSpec": false, "SplitSize": false, "GrepPattern": false,
	// Not read by the matrix build today, kept in the key because nothing
	// proves they never will be: raw conf reaches the workload's input format
	// and job, and the output directory its committer.
	"ExtraConf": false, "OutputDir": false,

	"ParallelCopies": true, "ShuffleMemBudget": true, "MergeFactor": true, "IOSortMB": true,
	"SpillPercent": true, "SyncSpill": true, "Slowstart": true, "Codec": true,
	"Engine": true, "Cluster": true, "Slaves": true, "Network": true, "RDMAShuffle": true,
	"Faults": true, "MonitorInterval": true, "Model": true,
}

// TestEveryConfigFieldIsClassified walks Config by reflection: each exported
// field has a decision on record, and dataShape clears exactly the fields
// decided environment-only.
func TestEveryConfigFieldIsClassified(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		envOnly, decided := configFieldIsEnvOnly[field.Name]
		if !decided {
			t.Errorf("Config.%s is neither marked environment-only nor recorded as part of the data shape", field.Name)
			continue
		}
		var c Config
		v := reflect.ValueOf(&c).Elem().Field(i)
		switch v.Kind() {
		case reflect.String:
			v.SetString("x")
		case reflect.Int, reflect.Int64:
			v.SetInt(7)
		case reflect.Float64:
			v.SetFloat(0.5)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Map:
			v.Set(reflect.ValueOf(map[string]string{"k": "v"}))
		case reflect.Pointer:
			v.Set(reflect.New(field.Type.Elem()))
		default:
			t.Fatalf("Config.%s: teach this test to fill a %s", field.Name, v.Kind())
		}
		if cleared := reflect.ValueOf(c.dataShape()).Field(i).IsZero(); cleared != envOnly {
			t.Errorf("Config.%s: dataShape clears it = %t, decision on record says environment-only = %t", field.Name, cleared, envOnly)
		}
	}
	if len(configFieldIsEnvOnly) != typ.NumField() {
		t.Errorf("%d decisions on record for %d Config fields: drop the stale ones", len(configFieldIsEnvOnly), typ.NumField())
	}
}
