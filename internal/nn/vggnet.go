package nn

import (
	"fmt"

	"repro/internal/mathx"
)

// VGGConfig describes the VGGNet topology of the paper's Fig. 4: five
// convolutional blocks (each 3×3 conv + ReLU + 2×2 max-pool) followed by a
// single fully connected classifier.
type VGGConfig struct {
	// InChannels is the image channel count (3 for RGB signs).
	InChannels int
	// InSize is the square input resolution; it must be divisible by 32 so
	// five 2×2 pools land on an integer grid.
	InSize int
	// Channels holds the output-filter count of each of the five blocks.
	// The paper's VGGNet uses {64, 128, 256, 512, 512}.
	Channels [5]int
	// Classes is the classifier width (43 for GTSRB).
	Classes int
}

// ScaledVGGConfig returns the 5-conv + 1-FC topology with the paper's
// Fig. 4 filter widths (Conv1 64, Conv2 128, Conv3 256, Conv4 512, Conv5
// 512) divided by the given factor (minimum 4 filters per block); factor
// 1 is the paper's network. The width scaling is the single-CPU
// substitution listed under "Departures from the paper" in
// ARCHITECTURE.md.
func ScaledVGGConfig(inChannels, inSize, classes, factor int) VGGConfig {
	paper := [5]int{64, 128, 256, 512, 512}
	var ch [5]int
	for i, c := range paper {
		ch[i] = c / factor
		if ch[i] < 4 {
			ch[i] = 4
		}
	}
	return VGGConfig{
		InChannels: inChannels,
		InSize:     inSize,
		Channels:   ch,
		Classes:    classes,
	}
}

// VGGNet builds the paper's network: five blocks of (3×3 conv, ReLU,
// 2×2 max-pool stride 2) and one fully connected output layer. For an
// input of size S the spatial resolution after the five pools is S/32, so
// S must be a positive multiple of 32.
func VGGNet(cfg VGGConfig, rng *mathx.RNG) (*Network, error) {
	if cfg.InSize <= 0 || cfg.InSize%32 != 0 {
		return nil, fmt.Errorf("nn: VGGNet input size %d must be a positive multiple of 32", cfg.InSize)
	}
	if cfg.Classes <= 1 {
		return nil, fmt.Errorf("nn: VGGNet needs at least 2 classes, got %d", cfg.Classes)
	}
	if cfg.InChannels <= 0 {
		return nil, fmt.Errorf("nn: VGGNet needs positive input channels, got %d", cfg.InChannels)
	}
	var layers []Layer
	inC := cfg.InChannels
	for i, outC := range cfg.Channels {
		if outC <= 0 {
			return nil, fmt.Errorf("nn: VGGNet block %d has %d filters", i+1, outC)
		}
		tag := fmt.Sprintf("conv%d", i+1)
		layers = append(layers,
			NewConv2D(tag, inC, outC, 3, 1, 1, rng),
			NewReLU(tag+"_relu"),
			NewMaxPool2D(fmt.Sprintf("pool%d", i+1), 2, 2),
		)
		inC = outC
	}
	final := cfg.InSize / 32
	flatDim := inC * final * final
	layers = append(layers,
		NewFlatten("flatten"),
		NewDenseXavier("fc", flatDim, cfg.Classes, rng),
	)
	return NewNetwork("vggnet", []int{cfg.InChannels, cfg.InSize, cfg.InSize}, layers...)
}

// TinyCNN builds a reduced 3-block convnet for fast unit and integration
// tests: same layer types and contracts as VGGNet, an order of magnitude
// fewer parameters. Input size must be a positive multiple of 8.
func TinyCNN(inChannels, inSize, classes int, rng *mathx.RNG) (*Network, error) {
	if inSize <= 0 || inSize%8 != 0 {
		return nil, fmt.Errorf("nn: TinyCNN input size %d must be a positive multiple of 8", inSize)
	}
	final := inSize / 8
	return NewNetwork("tinycnn", []int{inChannels, inSize, inSize},
		NewConv2D("conv1", inChannels, 8, 3, 1, 1, rng),
		NewReLU("relu1"),
		NewMaxPool2D("pool1", 2, 2),
		NewConv2D("conv2", 8, 16, 3, 1, 1, rng),
		NewReLU("relu2"),
		NewMaxPool2D("pool2", 2, 2),
		NewConv2D("conv3", 16, 24, 3, 1, 1, rng),
		NewReLU("relu3"),
		NewMaxPool2D("pool3", 2, 2),
		NewFlatten("flatten"),
		NewDenseXavier("fc", 24*final*final, classes, rng),
	)
}
