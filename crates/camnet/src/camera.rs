//! Camera geometry: position, field of view, tracking quality.
//!
//! The learned per-neighbour affinity state lives in
//! [`crate::affinity`] (struct-of-arrays, one contiguous slab for the
//! whole network) rather than inside each camera — see that module for
//! why.

use workloads::trajectories::Point;

/// A fixed smart camera with a circular field of view.
#[derive(Debug, Clone, PartialEq)]
pub struct Camera {
    id: usize,
    position: Point,
    fov_radius: f64,
}

impl Camera {
    /// Creates camera `id` at `position` with `fov_radius`, in a
    /// network of `n_cameras`.
    ///
    /// # Panics
    ///
    /// Panics if `fov_radius <= 0` or `id >= n_cameras`.
    #[must_use]
    pub fn new(id: usize, position: Point, fov_radius: f64, n_cameras: usize) -> Self {
        assert!(fov_radius > 0.0, "fov radius must be positive");
        assert!(id < n_cameras, "camera id out of range");
        Self {
            id,
            position,
            fov_radius,
        }
    }

    /// Camera id.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Camera position.
    #[must_use]
    pub fn position(&self) -> Point {
        self.position
    }

    /// Field-of-view radius.
    #[must_use]
    pub fn fov_radius(&self) -> f64 {
        self.fov_radius
    }

    /// Whether a world point is inside the field of view.
    #[must_use]
    pub fn sees(&self, p: Point) -> bool {
        self.position.distance(p) <= self.fov_radius
    }

    /// Tracking quality for an object at `p`: 1 at the centre of the
    /// FOV, falling linearly to 0 at its edge (and beyond).
    #[must_use]
    pub fn quality(&self, p: Point) -> f64 {
        let d = self.position.distance(p);
        (1.0 - d / self.fov_radius).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cam() -> Camera {
        Camera::new(0, Point::new(0.5, 0.5), 0.2, 4)
    }

    #[test]
    fn sees_and_quality() {
        let c = cam();
        assert!(c.sees(Point::new(0.5, 0.5)));
        assert!(c.sees(Point::new(0.6, 0.5)));
        assert!(!c.sees(Point::new(0.9, 0.9)));
        assert!((c.quality(Point::new(0.5, 0.5)) - 1.0).abs() < 1e-12);
        assert!((c.quality(Point::new(0.6, 0.5)) - 0.5).abs() < 1e-9);
        assert_eq!(c.quality(Point::new(0.9, 0.9)), 0.0);
    }

    #[test]
    fn accessors() {
        let c = cam();
        assert_eq!(c.id(), 0);
        assert_eq!(c.fov_radius(), 0.2);
        assert_eq!(c.position(), Point::new(0.5, 0.5));
    }

    #[test]
    #[should_panic(expected = "fov radius must be positive")]
    fn zero_fov_panics() {
        let _ = Camera::new(0, Point::new(0.0, 0.0), 0.0, 2);
    }

    #[test]
    #[should_panic(expected = "camera id out of range")]
    fn bad_id_panics() {
        let _ = Camera::new(5, Point::new(0.0, 0.0), 0.1, 2);
    }
}
