#!/usr/bin/env python3
"""Form-factor measures: moments, mass shift, and infrared regularity.

The mass shift is delta_m = pf * int |phi|^2 / omega^2 dk and
m_eff = 1 + delta_m; infrared regularity asks for int |phi|^2 / omega^3 dk
to be finite, which in d=3 fails for any profile with phi(0) != 0.
"""

import json

from pfwcl.formfactor import (GaussianProfile, PointMasses, RadialMeasure, SharpCutoff,
                              Tabulated, measure_to_json, moment_report)

gallery = {
    "sharp cutoff  d=3": RadialMeasure(3, SharpCutoff(1.0)),
    "gaussian      d=3": RadialMeasure(3, GaussianProfile(1.0)),
    "gaussian      d=4": RadialMeasure(4, GaussianProfile(1.0)),
    "single atom      ": RadialMeasure(3, PointMasses([(1.0, 3.0)])),
    "two atoms        ": RadialMeasure(3, PointMasses([(1.0, 1.0), (2.0, 2.0)])),
    "tabulated bump   ": RadialMeasure(3, Tabulated([(0.5, 0.0), (1.0, 1.0),
                                                     (1.5, 0.0)])),
}

print(f"{'measure':<18} {'delta_m':>12} {'m_eff':>12} {'IR regular':>11}")
for name, ff in gallery.items():
    rep = moment_report(ff)
    print(f"{name:<18} {rep.delta_m:12.6f} {rep.m_eff:12.6f} "
          f"{str(rep.ir_regular):>11}")

print("\nJSON form of the sharp cutoff (see docs/measure_schema.md):")
print(json.dumps(measure_to_json(gallery["sharp cutoff  d=3"])))
