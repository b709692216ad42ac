//! Perfect-gas thermodynamics and transport properties.
//!
//! Nondimensionalization: lengths by the jet radius `R`, density by the jet
//! centerline density `rho_c`, temperature by the centerline temperature
//! `T_c`, and velocity by the centerline sound speed `c_c`. With the gas
//! constant chosen as `R_gas = 1/gamma`, the centerline sound speed is
//! exactly 1 and the centerline axial velocity is the jet Mach number `M_c`.

use serde::{Deserialize, Serialize};

/// Perfect-gas model with constant transport coefficients.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GasModel {
    /// Ratio of specific heats.
    pub gamma: f64,
    /// Nondimensional gas constant (`p = rho * r_gas * t`).
    pub r_gas: f64,
    /// Dynamic viscosity (constant; set from the Reynolds number).
    pub mu: f64,
    /// Thermal conductivity (set from `mu` via the Prandtl number).
    pub kappa: f64,
    /// Prandtl number used to derive `kappa`.
    pub prandtl: f64,
}

impl GasModel {
    /// Air-like gas (`gamma = 1.4`, `Pr = 0.72`) with viscosity chosen so the
    /// Reynolds number based on jet *diameter* and centerline conditions is
    /// `re_d` when the centerline velocity is `u_c` (all nondimensional).
    pub fn air(re_d: f64, u_c: f64) -> Self {
        let gamma = 1.4;
        let r_gas = 1.0 / gamma;
        let prandtl = 0.72;
        // Re_D = rho_c * u_c * D / mu with rho_c = 1, D = 2R = 2.
        let mu = u_c * 2.0 / re_d;
        let cp = gamma * r_gas / (gamma - 1.0);
        let kappa = mu * cp / prandtl;
        Self { gamma, r_gas, mu, kappa, prandtl }
    }

    /// Inviscid variant: identical thermodynamics, zero transport
    /// coefficients. This is exactly the paper's Euler mode ("one obtains the
    /// Euler equations ... by setting kappa and all tau_ij equal to zero").
    pub fn inviscid(&self) -> Self {
        Self { mu: 0.0, kappa: 0.0, ..*self }
    }

    /// True when the transport coefficients are all zero.
    #[inline(always)]
    pub fn is_inviscid(&self) -> bool {
        self.mu == 0.0 && self.kappa == 0.0
    }

    /// Pressure from density and temperature.
    #[inline(always)]
    pub fn pressure(&self, rho: f64, t: f64) -> f64 {
        rho * self.r_gas * t
    }

    /// Temperature from density and pressure.
    #[inline(always)]
    pub fn temperature(&self, rho: f64, p: f64) -> f64 {
        p / (rho * self.r_gas)
    }

    /// Speed of sound.
    #[inline(always)]
    pub fn sound_speed(&self, rho: f64, p: f64) -> f64 {
        (self.gamma * p / rho).sqrt()
    }

    /// Total energy per unit volume from primitives.
    #[inline(always)]
    pub fn total_energy(&self, rho: f64, u: f64, v: f64, p: f64) -> f64 {
        p / (self.gamma - 1.0) + 0.5 * rho * (u * u + v * v)
    }

    /// Pressure from conservative variables.
    #[inline(always)]
    pub fn pressure_from_conservative(&self, rho: f64, mx: f64, mr: f64, e: f64) -> f64 {
        (self.gamma - 1.0) * (e - 0.5 * (mx * mx + mr * mr) / rho)
    }

    /// Specific heat at constant pressure.
    #[inline(always)]
    pub fn cp(&self) -> f64 {
        self.gamma * self.r_gas / (self.gamma - 1.0)
    }
}

/// Primitive state at a point.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Primitive {
    /// Density.
    pub rho: f64,
    /// Axial velocity.
    pub u: f64,
    /// Radial velocity.
    pub v: f64,
    /// Pressure.
    pub p: f64,
}

impl Primitive {
    /// Convert to the conservative vector `(rho, rho u, rho v, E)`.
    #[inline(always)]
    pub fn to_conservative(&self, gas: &GasModel) -> [f64; 4] {
        [self.rho, self.rho * self.u, self.rho * self.v, gas.total_energy(self.rho, self.u, self.v, self.p)]
    }

    /// Convert from a conservative vector.
    #[inline(always)]
    pub fn from_conservative(q: [f64; 4], gas: &GasModel) -> Self {
        let rho = q[0];
        let u = q[1] / rho;
        let v = q[2] / rho;
        let p = gas.pressure_from_conservative(rho, q[1], q[2], q[3]);
        Self { rho, u, v, p }
    }

    /// Local temperature.
    #[inline(always)]
    pub fn temperature(&self, gas: &GasModel) -> f64 {
        gas.temperature(self.rho, self.p)
    }

    /// Local sound speed.
    #[inline(always)]
    pub fn sound_speed(&self, gas: &GasModel) -> f64 {
        gas.sound_speed(self.rho, self.p)
    }

    /// Local Mach number.
    #[inline(always)]
    pub fn mach(&self, gas: &GasModel) -> f64 {
        (self.u * self.u + self.v * self.v).sqrt() / self.sound_speed(gas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gas() -> GasModel {
        GasModel::air(1.2e6, 1.5)
    }

    #[test]
    fn centerline_sound_speed_is_unity() {
        let g = gas();
        // rho_c = 1, T_c = 1 => p = r_gas, c = sqrt(gamma * r_gas) = 1.
        let p = g.pressure(1.0, 1.0);
        assert!((g.sound_speed(1.0, p) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn reynolds_number_recovered() {
        let g = gas();
        // Re = rho u D / mu = 1 * 1.5 * 2 / mu
        assert!((1.5 * 2.0 / g.mu - 1.2e6).abs() / 1.2e6 < 1e-12);
    }

    #[test]
    fn inviscid_zeroes_transport_only() {
        let g = gas();
        let e = g.inviscid();
        assert!(e.is_inviscid());
        assert_eq!(e.gamma, g.gamma);
        assert_eq!(e.r_gas, g.r_gas);
        assert!(!g.is_inviscid());
    }

    #[test]
    fn primitive_conservative_roundtrip() {
        let g = gas();
        let w = Primitive { rho: 1.7, u: 0.9, v: -0.2, p: 0.55 };
        let q = w.to_conservative(&g);
        let w2 = Primitive::from_conservative(q, &g);
        assert!((w.rho - w2.rho).abs() < 1e-13);
        assert!((w.u - w2.u).abs() < 1e-13);
        assert!((w.v - w2.v).abs() < 1e-13);
        assert!((w.p - w2.p).abs() < 1e-13);
    }

    #[test]
    fn mach_number_of_centerline_state() {
        let g = gas();
        let p = g.pressure(1.0, 1.0);
        let w = Primitive { rho: 1.0, u: 1.5, v: 0.0, p };
        assert!((w.mach(&g) - 1.5).abs() < 1e-12);
    }
}
