//! The hierarchical event model and its constructor abstraction.

use std::fmt;
use std::sync::Arc;

use hem_event_models::ops::OutputModel;
use hem_event_models::{EventModelExt, ModelError, ModelRef};
use hem_time::Time;

use crate::update::InnerUpdated;

/// Identifies the construction rule `C_Ω` that built a hierarchy
/// (Def. 5's third component).
///
/// The paper defines one inner update function per (operation,
/// constructor) pair; the tag lets operations pick the right one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Constructor {
    /// The pack constructor `Ω_pa` of Def. 8 (frame packing).
    Pack,
    /// The hierarchical OR constructor `Ω_or` (all inputs survive as
    /// inner streams; no pending semantics).
    Or,
}

impl fmt::Display for Constructor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constructor::Pack => write!(f, "Ω_pa"),
            Constructor::Or => write!(f, "Ω_or"),
        }
    }
}

/// One embedded stream of a hierarchy: a name (the signal identity) and
/// its event model.
#[derive(Debug, Clone)]
pub struct InnerStream {
    /// Identity of the embedded stream (e.g. the signal name).
    pub name: String,
    /// The inner event model `F_i`.
    pub model: ModelRef,
}

impl InnerStream {
    /// Creates a named inner stream.
    #[must_use]
    pub fn new(name: impl Into<String>, model: ModelRef) -> Self {
        InnerStream {
            name: name.into(),
            model,
        }
    }
}

/// A hierarchical event model `H = (F_out, L, C)` (paper Def. 5).
///
/// See the [crate-level documentation](crate) for the pack → transport →
/// unpack lifecycle.
#[derive(Debug, Clone)]
pub struct HierarchicalEventModel {
    outer: ModelRef,
    inners: Vec<InnerStream>,
    constructor: Constructor,
}

impl HierarchicalEventModel {
    /// Assembles a hierarchy from its components.
    ///
    /// Most users build hierarchies through a
    /// [`HierarchicalStreamConstructor`] such as
    /// [`PackConstructor`](crate::PackConstructor) instead.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if `inners` is empty or
    /// contains duplicate names.
    pub fn from_parts(
        outer: ModelRef,
        inners: Vec<InnerStream>,
        constructor: Constructor,
    ) -> Result<Self, ModelError> {
        if inners.is_empty() {
            return Err(ModelError::invalid(
                "a hierarchical event model needs at least one inner stream",
            ));
        }
        for (i, a) in inners.iter().enumerate() {
            if inners[i + 1..].iter().any(|b| b.name == a.name) {
                return Err(ModelError::invalid(format!(
                    "duplicate inner stream name `{}`",
                    a.name
                )));
            }
        }
        Ok(HierarchicalEventModel {
            outer,
            inners,
            constructor,
        })
    }

    /// The outer event stream `F_out` — what the shared resource (the
    /// bus) sees and analyses.
    #[must_use]
    pub fn outer(&self) -> &ModelRef {
        &self.outer
    }

    /// All inner streams, in packing order.
    #[must_use]
    pub fn inners(&self) -> &[InnerStream] {
        &self.inners
    }

    /// The construction rule that built this hierarchy.
    #[must_use]
    pub fn constructor(&self) -> Constructor {
        self.constructor
    }

    /// Applies the output-stream operation `Θ_τ` to the hierarchy: the
    /// outer stream is processed with response times `[r⁻, r⁺]` and every
    /// inner stream is adapted by the inner update function
    /// `B_Θτ,C_pa` (paper Def. 9), bounded by the processed outer stream
    /// `δ'_out` (see [`InnerUpdated`]):
    ///
    /// ```text
    /// δ''ᵢ⁻(n) = max( δ'ᵢ⁻(n) − (r⁺−r⁻) − (k−1)·r⁻,  δ'_out⁻(n) )
    /// δ''ᵢ⁺(n) = max( δ'ᵢ⁺(n) + (r⁺−r⁻) + (k−1)·r⁻,  δ''ᵢ⁻(n) )
    /// ```
    ///
    /// where `k` is the maximum number of *simultaneous* outer-stream
    /// events before the operation (simultaneously queued frames
    /// serialize on the resource, spreading by `r⁻` each and shifting the
    /// embedded signals accordingly).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] unless
    /// `0 ≤ r_minus ≤ r_plus`.
    pub fn process(&self, r_minus: Time, r_plus: Time) -> Result<Self, ModelError> {
        let outer = Arc::new(OutputModel::new(self.outer.clone(), r_minus, r_plus)?);
        let inners = self
            .inners
            .iter()
            .map(|inner| {
                let updated = InnerUpdated::new(inner.model.clone(), outer.clone());
                InnerStream::new(inner.name.clone(), updated.shared())
            })
            .collect();
        Ok(HierarchicalEventModel {
            outer,
            inners,
            constructor: self.constructor,
        })
    }

    /// The deconstructor `Ψ_pa` (Def. 10): extracts the `i`-th inner
    /// stream (`F_i = L(i)`), or `None` if out of range.
    #[must_use]
    pub fn unpack(&self, index: usize) -> Option<ModelRef> {
        self.inners.get(index).map(|s| s.model.clone())
    }

    /// Extracts an inner stream by name, or `None` if absent.
    #[must_use]
    pub fn unpack_by_name(&self, name: &str) -> Option<ModelRef> {
        self.inners
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.model.clone())
    }

    /// Deconstructs the hierarchy into all inner models (the full
    /// `D_Ψ : H → F^n` of Def. 6).
    #[must_use]
    pub fn unpack_all(&self) -> Vec<ModelRef> {
        self.inners.iter().map(|s| s.model.clone()).collect()
    }

    /// Flattens the hierarchy: returns only the outer stream, discarding
    /// the inner structure. This is what a *flat* analysis (the paper's
    /// baseline) works with.
    #[must_use]
    pub fn flatten(&self) -> ModelRef {
        Arc::clone(&self.outer)
    }
}

/// A hierarchical stream constructor `Ω : F^n → H` (paper Def. 4).
///
/// Implementors combine two or more event streams into a
/// [`HierarchicalEventModel`]. The paper notes that every flat stream
/// constructor has a hierarchical counterpart whose outer stream equals
/// the flat construction result.
pub trait HierarchicalStreamConstructor {
    /// Builds the hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when the inputs cannot form a valid
    /// hierarchy (constructor-specific; see implementors).
    fn construct(&self) -> Result<HierarchicalEventModel, ModelError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use hem_event_models::{EventModel, StandardEventModel};

    fn periodic(p: i64) -> ModelRef {
        StandardEventModel::periodic(Time::new(p)).unwrap().shared()
    }

    fn simple_hem() -> HierarchicalEventModel {
        HierarchicalEventModel::from_parts(
            periodic(100),
            vec![
                InnerStream::new("a", periodic(200)),
                InnerStream::new("b", periodic(300)),
            ],
            Constructor::Pack,
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        let hem = simple_hem();
        assert_eq!(hem.inners().len(), 2);
        assert_eq!(hem.constructor(), Constructor::Pack);
        assert_eq!(hem.constructor().to_string(), "Ω_pa");
        assert_eq!(hem.outer().delta_min(2), Time::new(100));
    }

    #[test]
    fn unpack_variants() {
        let hem = simple_hem();
        assert_eq!(hem.unpack(0).unwrap().delta_min(2), Time::new(200));
        assert_eq!(hem.unpack(1).unwrap().delta_min(2), Time::new(300));
        assert!(hem.unpack(2).is_none());
        assert_eq!(
            hem.unpack_by_name("b").unwrap().delta_min(2),
            Time::new(300)
        );
        assert!(hem.unpack_by_name("missing").is_none());
        assert_eq!(hem.unpack_all().len(), 2);
        assert_eq!(hem.flatten().delta_min(2), Time::new(100));
    }

    #[test]
    fn rejects_empty_and_duplicate_inners() {
        assert!(
            HierarchicalEventModel::from_parts(periodic(100), vec![], Constructor::Pack).is_err()
        );
        let dup = HierarchicalEventModel::from_parts(
            periodic(100),
            vec![
                InnerStream::new("x", periodic(200)),
                InnerStream::new("x", periodic(300)),
            ],
            Constructor::Pack,
        );
        assert!(dup.is_err());
    }

    #[test]
    fn process_transforms_outer_and_inner() {
        let hem = simple_hem();
        let out = hem.process(Time::new(5), Time::new(25)).unwrap();
        // Outer follows Θ_τ: δ⁻ reduced by the jitter 20.
        assert_eq!(out.outer().delta_min(2), Time::new(80));
        // Inner follows Def. 9 with k = 1: same jitter shift.
        assert_eq!(
            out.unpack_by_name("a").unwrap().delta_min(2),
            Time::new(180)
        );
        assert_eq!(out.constructor(), Constructor::Pack);
        assert!(hem.process(Time::new(30), Time::new(20)).is_err());
    }
}
