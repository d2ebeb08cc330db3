package nn

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/tensor"
)

// Weight-file format (little-endian):
//
//	magic   [8]byte  "FADEMLW1"
//	count   uint32   number of tensors
//	per tensor:
//	  nameLen uint16, name []byte
//	  ndims   uint8,  dims []uint32
//	  data    []float64 (raw IEEE-754 bits)
//
// Every trainable parameter is stored, keyed by name. Loading matches names
// and shapes strictly: a
// weight file from a different topology is rejected rather than silently
// truncated.

var weightMagic = [8]byte{'F', 'A', 'D', 'E', 'M', 'L', 'W', '1'}

// SaveWeights writes every parameter of the network to w.
func (n *Network) SaveWeights(w io.Writer) error {
	bw := bufio.NewWriter(w)
	params := n.Params()
	if _, err := bw.Write(weightMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if len(p.Name) > math.MaxUint16 {
			return fmt.Errorf("nn: weight name %q too long", p.Name)
		}
		if err := binary.Write(bw, binary.LittleEndian, uint16(len(p.Name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(p.Name); err != nil {
			return err
		}
		dims := p.Value.Shape()
		if err := bw.WriteByte(byte(len(dims))); err != nil {
			return err
		}
		for _, d := range dims {
			if err := binary.Write(bw, binary.LittleEndian, uint32(d)); err != nil {
				return err
			}
		}
		buf := make([]byte, 8*len(p.Value.Data()))
		for i, v := range p.Value.Data() {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadWeights reads a weight file produced by SaveWeights into the network.
// Every tensor in the file must match a parameter by name and shape, and
// every parameter must be present in the file.
func (n *Network) LoadWeights(r io.Reader) error {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("nn: reading weight magic: %w", err)
	}
	if magic != weightMagic {
		return fmt.Errorf("nn: bad weight file magic %q", magic)
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("nn: reading weight count: %w", err)
	}
	targets := make(map[string]*tensor.Tensor)
	for _, p := range n.Params() {
		targets[p.Name] = p.Value
	}
	if int(count) != len(targets) {
		return fmt.Errorf("nn: weight file has %d tensors, network %q has %d", count, n.name, len(targets))
	}
	loaded := make(map[string]bool)
	for i := uint32(0); i < count; i++ {
		var nameLen uint16
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return fmt.Errorf("nn: reading name length: %w", err)
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBuf); err != nil {
			return fmt.Errorf("nn: reading name: %w", err)
		}
		name := string(nameBuf)
		ndims, err := br.ReadByte()
		if err != nil {
			return fmt.Errorf("nn: reading ndims for %q: %w", name, err)
		}
		dims := make([]int, ndims)
		elems := 1
		for d := range dims {
			var v uint32
			if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
				return fmt.Errorf("nn: reading dims for %q: %w", name, err)
			}
			dims[d] = int(v)
			elems *= int(v)
		}
		dst, ok := targets[name]
		if !ok {
			return fmt.Errorf("nn: weight file tensor %q not in network %q", name, n.name)
		}
		if loaded[name] {
			return fmt.Errorf("nn: weight file has duplicate tensor %q", name)
		}
		want := dst.Shape()
		if len(want) != len(dims) {
			return fmt.Errorf("nn: tensor %q shape %v, network wants %v", name, dims, want)
		}
		for d := range want {
			if want[d] != dims[d] {
				return fmt.Errorf("nn: tensor %q shape %v, network wants %v", name, dims, want)
			}
		}
		buf := make([]byte, 8*elems)
		if _, err := io.ReadFull(br, buf); err != nil {
			return fmt.Errorf("nn: reading data for %q: %w", name, err)
		}
		data := dst.Data()
		for e := 0; e < elems; e++ {
			data[e] = math.Float64frombits(binary.LittleEndian.Uint64(buf[e*8:]))
		}
		loaded[name] = true
	}
	return nil
}

// WeightHash returns the lowercase-hex SHA-256 of the serialized weight
// stream — exactly the bytes SaveWeights would emit — so a live network,
// a weight file on disk, and a registry manifest can all be compared by
// one content address. Two networks with bit-identical parameters hash
// equal regardless of how they were built.
func (n *Network) WeightHash() (string, error) {
	h := sha256.New()
	if err := n.SaveWeights(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// SaveWeightsFile writes the network weights to path atomically (temp file
// plus rename) so an interrupted write never leaves a corrupt cache.
func (n *Network) SaveWeightsFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := n.SaveWeights(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
