package onnx

import (
	"errors"
	"testing"
)

// minimalModel wraps one node over a single float input into a Model.
func minimalModel(node *NodeProto, extra ...*TensorProto) *Model {
	return &Model{
		IRVersion:    exportIRVersion,
		OpsetVersion: exportOpset,
		Graph: &GraphProto{
			Name:         "t",
			Inputs:       []*ValueInfo{{Name: "x", ElemType: dtFloat, Dims: []int64{1, 4}}},
			Outputs:      []*ValueInfo{{Name: "y", ElemType: dtFloat, Dims: []int64{1, 4}}},
			Nodes:        []*NodeProto{node},
			Initializers: extra,
		},
	}
}

func TestConvertUnsupportedOp(t *testing.T) {
	m := minimalModel(&NodeProto{
		Name: "rnn0", OpType: "LSTM", Inputs: []string{"x"}, Outputs: []string{"y"},
	})
	_, err := ToGraph(m)
	if err == nil {
		t.Fatal("want error for LSTM, got nil")
	}
	if !errors.Is(err, ErrUnsupportedOp) {
		t.Errorf("error %v does not match ErrUnsupportedOp", err)
	}
	if !errors.Is(err, ErrImport) {
		t.Errorf("error %v does not match ErrImport", err)
	}
	var ue *UnsupportedOpError
	if !errors.As(err, &ue) {
		t.Fatalf("error %v is not an *UnsupportedOpError", err)
	}
	if ue.Op != "LSTM" || ue.Node != `"rnn0"` {
		t.Errorf("unexpected context: op=%q node=%q", ue.Op, ue.Node)
	}
}

func TestConvertSymbolicDim(t *testing.T) {
	m := minimalModel(&NodeProto{OpType: "Relu", Inputs: []string{"x"}, Outputs: []string{"y"}})
	m.Graph.Inputs[0].Dims = []int64{-1, 4} // dim_param placeholder
	if _, err := ToGraph(m); err == nil || !errors.Is(err, ErrImport) {
		t.Fatalf("symbolic dim: want ErrImport, got %v", err)
	}
}

func TestConvertNonFloatInput(t *testing.T) {
	m := minimalModel(&NodeProto{OpType: "Relu", Inputs: []string{"x"}, Outputs: []string{"y"}})
	m.Graph.Inputs[0].ElemType = dtInt64
	if _, err := ToGraph(m); err == nil || !errors.Is(err, ErrImport) {
		t.Fatalf("int64 input: want ErrImport, got %v", err)
	}
}

func TestConvertDanglingInput(t *testing.T) {
	m := minimalModel(&NodeProto{OpType: "Relu", Inputs: []string{"ghost"}, Outputs: []string{"y"}})
	if _, err := ToGraph(m); err == nil || !errors.Is(err, ErrImport) {
		t.Fatalf("dangling input: want ErrImport, got %v", err)
	}
}

func TestConvertBadAttrCombos(t *testing.T) {
	cases := map[string]*NodeProto{
		"conv-auto-pad": {OpType: "Conv", Inputs: []string{"x", "w"}, Outputs: []string{"y"},
			Attrs: []*Attribute{{Name: "auto_pad", Type: attrString, S: []byte("SAME_UPPER")}}},
		"asymmetric-pads": {OpType: "Conv", Inputs: []string{"x", "w"}, Outputs: []string{"y"},
			Attrs: []*Attribute{{Name: "pads", Type: attrInts, Ints: []int64{1, 0, 1, 1}}}},
		"cast-to-int": {OpType: "Cast", Inputs: []string{"x"}, Outputs: []string{"y"},
			Attrs: []*Attribute{{Name: "to", Type: attrInt, I: dtInt64}}},
		"concat-no-axis": {OpType: "Concat", Inputs: []string{"x", "x"}, Outputs: []string{"y"}},
	}
	w := &TensorProto{Name: "w", DataType: dtFloat, Dims: []int64{4, 4, 1, 1}}
	for name, node := range cases {
		if _, err := ToGraph(minimalModel(node, w)); err == nil {
			t.Errorf("%s: want error, got nil", name)
		} else if !errors.Is(err, ErrImport) {
			t.Errorf("%s: error %v does not match ErrImport", name, err)
		}
	}
}

func TestConvertImportEntryPoint(t *testing.T) {
	// Import = Unmarshal + ToGraph: corrupt bytes surface the same sentinel.
	if _, err := Import([]byte{0xff, 0xff, 0xff}); err == nil || !errors.Is(err, ErrImport) {
		t.Fatalf("corrupt bytes: want ErrImport, got %v", err)
	}

	// A well-formed minimal model imports end to end.
	m := minimalModel(&NodeProto{OpType: "Relu", Inputs: []string{"x"}, Outputs: []string{"y"}})
	g, err := Import(m.Marshal())
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	if len(g.Nodes) != 1 || g.Nodes[0].Op.Type() != "Relu" {
		t.Fatalf("unexpected graph: %v", g.Nodes)
	}
	if len(g.Outputs) != 1 || g.Outputs[0].Name != "y" {
		t.Fatalf("unexpected outputs: %v", g.Outputs)
	}
}

// TestConvertHostileSizes: a block size below 1 or a Split size below 1 is a
// corrupt model, rejected with ErrImport — not a division by zero, and not a
// graph with negative dimensions.
func TestConvertHostileSizes(t *testing.T) {
	blocksize := func(op string, b int64) *NodeProto {
		return &NodeProto{OpType: op, Inputs: []string{"x"}, Outputs: []string{"y"},
			Attrs: []*Attribute{{Name: "blocksize", Type: attrInt, I: b}}}
	}
	cases := map[string]*NodeProto{
		"DepthToSpace blocksize 0":  blocksize("DepthToSpace", 0),
		"DepthToSpace blocksize -2": blocksize("DepthToSpace", -2),
		"SpaceToDepth blocksize 0":  blocksize("SpaceToDepth", 0),
		"SpaceToDepth blocksize -2": blocksize("SpaceToDepth", -2),
		"Split [-2 10]": {OpType: "Split", Inputs: []string{"x"}, Outputs: []string{"y", "y2"},
			Attrs: []*Attribute{{Name: "axis", Type: attrInt, I: 1}, {Name: "split", Type: attrInts, Ints: []int64{-2, 10}}}},
	}
	for name, node := range cases {
		m := minimalModel(node)
		m.Graph.Inputs[0].Dims = []int64{1, 8, 4, 4}
		if g, err := ToGraph(m); err == nil {
			t.Errorf("%s: imported, output %v", name, g.Outputs[0].Shape)
		} else if !errors.Is(err, ErrImport) {
			t.Errorf("%s: error %v does not match ErrImport", name, err)
		}
	}
}
