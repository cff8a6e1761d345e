package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"noceval/internal/core"
	"noceval/internal/traffic"
	"noceval/internal/workload"
)

// classOpts gathers the QoS traffic-class flags shared by the open-loop
// subcommands. All flags default to "off"; apply leaves the parameters
// untouched when none was given, so class-free invocations produce the
// exact pre-QoS parameter schema (and cache keys).
type classOpts struct {
	classes []core.ClassSpec
	mix     string
	arb     string
}

// classFlags registers the QoS class flags on a subcommand's flag set.
func classFlags(fs *flag.FlagSet) *classOpts {
	o := &classOpts{}
	fs.Func("class", "QoS class name:share[:pattern[:sizes]] in priority order, highest first (repeatable)", func(s string) error {
		parts := strings.Split(s, ":")
		if len(parts) < 2 || len(parts) > 4 {
			return fmt.Errorf("want name:share[:pattern[:sizes]], got %q", s)
		}
		share, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return fmt.Errorf("bad share in %q: %v", s, err)
		}
		cs := core.ClassSpec{Name: parts[0], Share: share}
		if len(parts) > 2 {
			cs.Pattern = parts[2]
		}
		if len(parts) > 3 {
			cs.Sizes = parts[3]
		}
		o.classes = append(o.classes, cs)
		return nil
	})
	fs.StringVar(&o.mix, "class-mix", "",
		"named QoS class preset ("+strings.Join(workload.QoSMixNames(), ", ")+"); mutually exclusive with -class")
	fs.StringVar(&o.arb, "class-arb", "", "cross-class arbitration: strict (default) or classrr")
	return o
}

// sizeSpecName maps a preset's size distribution back to its spec name.
func sizeSpecName(sd traffic.SizeDist) string {
	switch sd.(type) {
	case traffic.FixedSize:
		return "single"
	case traffic.Bimodal:
		return "bimodal"
	}
	return sd.Name()
}

// apply folds the class flags into the network parameters; with every flag
// at its default the parameters are left untouched.
func (o *classOpts) apply(p *core.NetworkParams) error {
	if o.mix != "" {
		if len(o.classes) > 0 {
			return fmt.Errorf("-class and -class-mix are mutually exclusive")
		}
		mix, err := workload.QoSMixByName(o.mix)
		if err != nil {
			return err
		}
		for _, cl := range mix {
			o.classes = append(o.classes, core.ClassSpec{
				Name:    cl.Name,
				Share:   cl.Share,
				Pattern: cl.Pattern.Name(),
				Sizes:   sizeSpecName(cl.Sizes),
			})
		}
	}
	if len(o.classes) == 0 {
		if o.arb != "" {
			return fmt.Errorf("-class-arb needs QoS classes (-class or -class-mix)")
		}
		return nil
	}
	p.Classes = o.classes
	p.ClassArb = o.arb
	return nil
}
