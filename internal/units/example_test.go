package units_test

import (
	"fmt"
	"time"

	"repro/internal/units"
)

func ExamplePagesOf() {
	fmt.Println(units.PagesOf(4 * units.GiB))
	// Output: 1048576
}

func ExampleEnergyOver() {
	e := units.EnergyOver(500, 90*time.Second)
	fmt.Printf("%.0f kJ\n", e.KiloJoules())
	// Output: 45 kJ
}

func ExampleFraction_Percent() {
	fmt.Println(units.Fraction(0.95).Percent())
	// Output: 95%
}
