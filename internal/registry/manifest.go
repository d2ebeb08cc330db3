// Package registry is the versioned model store behind the serving
// layer: a model is name@version, backed by a manifest (architecture
// spec, weight SHA-256, lineage) plus the nn.SaveWeights blob. Loads
// rebuild the architecture from the manifest, verify the weight bytes
// against the recorded hash, and match every tensor by name and shape —
// a corrupt, truncated, or wrong-topology file is a clear error, never
// garbage weights. Materialized networks (and their float32 snapshots)
// are cached per version so repeated loads of the same version share
// one weight set.
package registry

import (
	"fmt"
	"strings"

	"repro/internal/mathx"
	"repro/internal/nn"
)

// Architecture families the registry can rebuild from a manifest.
const (
	FamilyVGG     = "vgg"
	FamilyTinyCNN = "tinycnn"
)

// ArchSpec is the declarative architecture description stored in a
// manifest — enough to rebuild the exact network topology so the strict
// name+shape matching of nn.LoadWeights can do the rest.
type ArchSpec struct {
	// Family selects the builder: FamilyVGG or FamilyTinyCNN.
	Family string `json:"family"`
	// InChannels and InSize give the CHW input geometry.
	InChannels int `json:"in_channels"`
	InSize     int `json:"in_size"`
	// Classes is the classifier width.
	Classes int `json:"classes"`
	// Channels holds the per-block filter counts (vgg family: exactly 5
	// entries; unused for tinycnn, whose widths are fixed).
	Channels []int `json:"channels,omitempty"`
}

// VGGSpec converts an nn.VGGConfig into its manifest form.
func VGGSpec(cfg nn.VGGConfig) ArchSpec {
	return ArchSpec{
		Family:     FamilyVGG,
		InChannels: cfg.InChannels,
		InSize:     cfg.InSize,
		Classes:    cfg.Classes,
		Channels:   append([]int(nil), cfg.Channels[:]...),
	}
}

// TinyCNNSpec describes the fixed-width test convnet.
func TinyCNNSpec(inChannels, inSize, classes int) ArchSpec {
	return ArchSpec{
		Family:     FamilyTinyCNN,
		InChannels: inChannels,
		InSize:     inSize,
		Classes:    classes,
	}
}

// Build materializes a freshly initialized network of the described
// topology. The initialization RNG is fixed: every tensor is about to be
// overwritten by a hash-verified LoadWeights, so only the topology
// matters.
func (a ArchSpec) Build() (*nn.Network, error) {
	switch a.Family {
	case FamilyVGG:
		if len(a.Channels) != 5 {
			return nil, fmt.Errorf("registry: vgg arch wants 5 channel widths, manifest has %d", len(a.Channels))
		}
		cfg := nn.VGGConfig{
			InChannels: a.InChannels,
			InSize:     a.InSize,
			Classes:    a.Classes,
		}
		copy(cfg.Channels[:], a.Channels)
		return nn.VGGNet(cfg, mathx.NewRNG(1))
	case FamilyTinyCNN:
		return nn.TinyCNN(a.InChannels, a.InSize, a.Classes, mathx.NewRNG(1))
	default:
		return nil, fmt.Errorf("registry: unknown architecture family %q", a.Family)
	}
}

// equal reports whether two specs describe the same topology.
func (a ArchSpec) equal(b ArchSpec) bool {
	if a.Family != b.Family || a.InChannels != b.InChannels ||
		a.InSize != b.InSize || a.Classes != b.Classes ||
		len(a.Channels) != len(b.Channels) {
		return false
	}
	for i := range a.Channels {
		if a.Channels[i] != b.Channels[i] {
			return false
		}
	}
	return true
}

// Manifest is the metadata record of one model version, stored as
// manifest.json beside the weight blob.
type Manifest struct {
	// Name and Version identify the entry; together they form the
	// canonical "name@version" reference.
	Name    string `json:"name"`
	Version string `json:"version"`
	// Arch rebuilds the network topology on load.
	Arch ArchSpec `json:"arch"`
	// WeightsSHA256 is the lowercase-hex SHA-256 of the weight file —
	// identical to nn.Network.WeightHash of the stored network.
	WeightsSHA256 string `json:"weights_sha256"`
	// Parent is the "name@version" this version derives from ("" for the
	// first version of a name).
	Parent string `json:"parent,omitempty"`
	// CreatedAt is an RFC 3339 UTC timestamp.
	CreatedAt string `json:"created_at"`
	// Note is free-form provenance (training profile, purpose).
	Note string `json:"note,omitempty"`
}

// Ref names a model version. An empty Version means "latest" until
// resolved.
type Ref struct {
	Name    string
	Version string
}

// String renders "name@version" (bare name while unresolved).
func (r Ref) String() string {
	if r.Version == "" {
		return r.Name
	}
	return r.Name + "@" + r.Version
}

// ParseRef splits a "name" or "name@version" spec. The version part is
// optional and empty means latest.
func ParseRef(spec string) (Ref, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Ref{}, fmt.Errorf("registry: empty model reference")
	}
	name, version, found := strings.Cut(spec, "@")
	if err := validateName(name); err != nil {
		return Ref{}, err
	}
	if found && version == "" {
		return Ref{}, fmt.Errorf("registry: reference %q has an empty version", spec)
	}
	return Ref{Name: name, Version: version}, nil
}

// validateName rejects names that would escape the store layout or
// collide with the reference syntax.
func validateName(name string) error {
	if name == "" {
		return fmt.Errorf("registry: empty model name")
	}
	if strings.ContainsAny(name, "@/\\") || name == "." || name == ".." {
		return fmt.Errorf("registry: invalid model name %q (no '@', path separators, or dot dirs)", name)
	}
	return nil
}
