// Package imageio converts between the repository's CHW float64 tensors
// and Go's image types, with PNG save/load and an ASCII preview for
// terminal debugging.
package imageio

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"os"
	"strings"

	"repro/internal/mathx"
	"repro/internal/tensor"
)

// ToImage converts a CHW tensor (1 or 3 channels, values in [0, 1]) into an
// NRGBA image. Values outside [0, 1] are clamped.
func ToImage(t *tensor.Tensor) (*image.NRGBA, error) {
	if t.Dims() != 3 {
		return nil, fmt.Errorf("imageio: want CHW tensor, got shape %v", t.Shape())
	}
	c, h, w := t.Dim(0), t.Dim(1), t.Dim(2)
	if c != 1 && c != 3 {
		return nil, fmt.Errorf("imageio: want 1 or 3 channels, got %d", c)
	}
	img := image.NewNRGBA(image.Rect(0, 0, w, h))
	to8 := func(v float64) uint8 { return uint8(mathx.Clamp01(v)*255 + 0.5) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var r, g, b uint8
			if c == 1 {
				v := to8(t.At(0, y, x))
				r, g, b = v, v, v
			} else {
				r = to8(t.At(0, y, x))
				g = to8(t.At(1, y, x))
				b = to8(t.At(2, y, x))
			}
			img.SetNRGBA(x, y, color.NRGBA{R: r, G: g, B: b, A: 255})
		}
	}
	return img, nil
}

// FromImage converts any image into a 3-channel CHW tensor with values in
// [0, 1].
func FromImage(img image.Image) *tensor.Tensor {
	b := img.Bounds()
	h, w := b.Dy(), b.Dx()
	t := tensor.New(3, h, w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r, g, bb, _ := img.At(b.Min.X+x, b.Min.Y+y).RGBA()
			t.Set(float64(r)/65535, 0, y, x)
			t.Set(float64(g)/65535, 1, y, x)
			t.Set(float64(bb)/65535, 2, y, x)
		}
	}
	return t
}

// SavePNG writes a CHW tensor to path as a PNG file.
func SavePNG(t *tensor.Tensor, path string) error {
	img, err := ToImage(t)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := png.Encode(f, img); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadPNG reads a PNG file into a 3-channel CHW tensor.
func LoadPNG(path string) (*tensor.Tensor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	img, err := png.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("imageio: decoding %s: %w", path, err)
	}
	return FromImage(img), nil
}

// ASCII renders a CHW tensor as a luminance character grid for quick
// terminal inspection (dark to bright).
func ASCII(t *tensor.Tensor) string {
	if t.Dims() != 3 {
		return "<not CHW>"
	}
	ramp := []byte(" .:-=+*#%@")
	c, h, w := t.Dim(0), t.Dim(1), t.Dim(2)
	var sb strings.Builder
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var lum float64
			if c >= 3 {
				lum = 0.299*t.At(0, y, x) + 0.587*t.At(1, y, x) + 0.114*t.At(2, y, x)
			} else {
				lum = t.At(0, y, x)
			}
			idx := int(mathx.Clamp01(lum) * float64(len(ramp)-1))
			sb.WriteByte(ramp[idx])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
