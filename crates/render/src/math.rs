//! Minimal 3D math: vectors, 4×4 matrices, and the transforms a software
//! rasterizer needs. Self-contained (no external linear-algebra crate) and
//! deliberately small — only what the rendering substrate uses.

use serde::{Deserialize, Serialize};

/// A 3-component vector.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    /// x component.
    pub x: f32,
    /// y component.
    pub y: f32,
    /// z component.
    pub z: f32,
}

/// A 4-component homogeneous vector.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec4 {
    /// x component.
    pub x: f32,
    /// y component.
    pub y: f32,
    /// z component.
    pub z: f32,
    /// w component.
    pub w: f32,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Construct from components.
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    pub fn dot(self, o: Vec3) -> f32 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product.
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * o.z - self.z * o.y,
            y: self.z * o.x - self.x * o.z,
            z: self.x * o.y - self.y * o.x,
        }
    }

    /// Euclidean length.
    pub fn length(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Unit-length copy; the zero vector normalizes to itself.
    pub fn normalized(self) -> Vec3 {
        let len = self.length();
        if len == 0.0 {
            self
        } else {
            self * (1.0 / len)
        }
    }

    /// Extend to homogeneous coordinates with the given w.
    pub fn extend(self, w: f32) -> Vec4 {
        Vec4 {
            x: self.x,
            y: self.y,
            z: self.z,
            w,
        }
    }
}

impl std::ops::Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl std::ops::Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl std::ops::Mul<f32> for Vec3 {
    type Output = Vec3;
    fn mul(self, s: f32) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl std::ops::Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Vec4 {
    /// Construct from components.
    pub const fn new(x: f32, y: f32, z: f32, w: f32) -> Self {
        Vec4 { x, y, z, w }
    }

    /// Perspective divide to 3D; w must be nonzero.
    pub fn project(self) -> Vec3 {
        debug_assert!(self.w != 0.0, "perspective divide by zero w");
        Vec3::new(self.x / self.w, self.y / self.w, self.z / self.w)
    }

    /// Drop the w component.
    pub fn truncate(self) -> Vec3 {
        Vec3::new(self.x, self.y, self.z)
    }
}

/// Row-major 4×4 matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mat4 {
    /// Row-major elements: `m[row][col]`.
    pub m: [[f32; 4]; 4],
}

impl Mat4 {
    /// The identity matrix.
    pub const IDENTITY: Mat4 = Mat4 {
        m: [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
    };

    /// Translation matrix.
    pub fn translate(t: Vec3) -> Mat4 {
        let mut m = Mat4::IDENTITY;
        m.m[0][3] = t.x;
        m.m[1][3] = t.y;
        m.m[2][3] = t.z;
        m
    }

    /// Non-uniform scale matrix.
    pub fn scale(s: Vec3) -> Mat4 {
        let mut m = Mat4::IDENTITY;
        m.m[0][0] = s.x;
        m.m[1][1] = s.y;
        m.m[2][2] = s.z;
        m
    }

    /// Rotation about the y axis by `a` radians.
    pub fn rotate_y(a: f32) -> Mat4 {
        let (s, c) = a.sin_cos();
        let mut m = Mat4::IDENTITY;
        m.m[0][0] = c;
        m.m[0][2] = s;
        m.m[2][0] = -s;
        m.m[2][2] = c;
        m
    }

    /// Right-handed perspective projection (OpenGL-style clip volume,
    /// z mapped to [-1, 1]).
    ///
    /// # Panics
    /// Panics on degenerate parameters.
    pub fn perspective(fov_y_rad: f32, aspect: f32, near: f32, far: f32) -> Mat4 {
        assert!(fov_y_rad > 0.0 && aspect > 0.0, "degenerate frustum");
        assert!(near > 0.0 && far > near, "invalid near/far planes");
        let f = 1.0 / (fov_y_rad / 2.0).tan();
        let mut m = Mat4 { m: [[0.0; 4]; 4] };
        m.m[0][0] = f / aspect;
        m.m[1][1] = f;
        m.m[2][2] = (far + near) / (near - far);
        m.m[2][3] = 2.0 * far * near / (near - far);
        m.m[3][2] = -1.0;
        m
    }

    /// Right-handed look-at view matrix.
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3) -> Mat4 {
        let fwd = (target - eye).normalized();
        let right = fwd.cross(up).normalized();
        let true_up = right.cross(fwd);
        Mat4 {
            m: [
                [right.x, right.y, right.z, -right.dot(eye)],
                [true_up.x, true_up.y, true_up.z, -true_up.dot(eye)],
                [-fwd.x, -fwd.y, -fwd.z, fwd.dot(eye)],
                [0.0, 0.0, 0.0, 1.0],
            ],
        }
    }

    /// Matrix product `self * rhs`.
    pub fn mul(&self, rhs: &Mat4) -> Mat4 {
        let mut out = [[0.0f32; 4]; 4];
        for (r, row) in out.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = (0..4).map(|k| self.m[r][k] * rhs.m[k][c]).sum();
            }
        }
        Mat4 { m: out }
    }

    /// Transform a homogeneous vector.
    pub fn mul_vec4(&self, v: Vec4) -> Vec4 {
        let row = |r: usize| {
            self.m[r][0] * v.x + self.m[r][1] * v.y + self.m[r][2] * v.z + self.m[r][3] * v.w
        };
        Vec4::new(row(0), row(1), row(2), row(3))
    }

    /// Transform a direction (w = 0: rotation/scale only).
    pub fn transform_dir(&self, d: Vec3) -> Vec3 {
        self.mul_vec4(d.extend(0.0)).truncate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    /// Transform a point (w = 1, no perspective divide).
    fn transform_point(m: &Mat4, p: Vec3) -> Vec3 {
        m.mul_vec4(p.extend(1.0)).truncate()
    }

    fn vec_close(a: Vec3, b: Vec3) -> bool {
        close(a.x, b.x) && close(a.y, b.y) && close(a.z, b.z)
    }

    #[test]
    fn vector_algebra() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a.dot(b), 32.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn cross_product_orthogonal() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(x.cross(y), Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(y.cross(x), Vec3::new(0.0, 0.0, -1.0));
    }

    #[test]
    fn normalize_unit_length() {
        let v = Vec3::new(3.0, 4.0, 0.0).normalized();
        assert!(close(v.length(), 1.0));
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn identity_is_neutral() {
        let m = Mat4::rotate_y(0.7).mul(&Mat4::translate(Vec3::new(1.0, 2.0, 3.0)));
        assert_eq!(Mat4::IDENTITY.mul(&m), m);
        assert_eq!(m.mul(&Mat4::IDENTITY), m);
    }

    #[test]
    fn translate_moves_points_not_directions() {
        let t = Mat4::translate(Vec3::new(5.0, 0.0, 0.0));
        assert_eq!(
            transform_point(&t, Vec3::new(1.0, 1.0, 1.0)),
            Vec3::new(6.0, 1.0, 1.0)
        );
        assert_eq!(
            t.transform_dir(Vec3::new(1.0, 1.0, 1.0)),
            Vec3::new(1.0, 1.0, 1.0)
        );
    }

    #[test]
    fn rotation_preserves_length() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        for a in [0.4, 1.1, 2.2] {
            let m = Mat4::rotate_y(a);
            assert!(close(transform_point(&m, v).length(), v.length()));
        }
    }

    #[test]
    fn rotation_composition_matches_sum_of_angles() {
        let a = Mat4::rotate_y(0.3);
        let b = Mat4::rotate_y(0.5);
        let ab = a.mul(&b);
        let direct = Mat4::rotate_y(0.8);
        let p = Vec3::new(1.0, 0.0, 0.0);
        assert!(vec_close(
            transform_point(&ab, p),
            transform_point(&direct, p)
        ));
    }

    #[test]
    fn perspective_maps_axis_to_center() {
        let proj = Mat4::perspective(std::f32::consts::FRAC_PI_2, 1.0, 0.1, 100.0);
        // A point straight ahead on the -z axis projects to NDC origin.
        let clip = proj.mul_vec4(Vec3::new(0.0, 0.0, -10.0).extend(1.0));
        let ndc = clip.project();
        assert!(close(ndc.x, 0.0) && close(ndc.y, 0.0));
        // Near plane maps to z = -1, far to z = +1.
        let near = proj
            .mul_vec4(Vec3::new(0.0, 0.0, -0.1).extend(1.0))
            .project();
        let far = proj
            .mul_vec4(Vec3::new(0.0, 0.0, -100.0).extend(1.0))
            .project();
        assert!(close(near.z, -1.0), "near z {}", near.z);
        assert!(close(far.z, 1.0), "far z {}", far.z);
    }

    #[test]
    fn look_at_centers_target() {
        let view = Mat4::look_at(
            Vec3::new(0.0, 0.0, 5.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
        );
        let p = transform_point(&view, Vec3::ZERO);
        // Target sits straight ahead at distance 5 on the -z axis.
        assert!(vec_close(p, Vec3::new(0.0, 0.0, -5.0)));
    }

    #[test]
    #[should_panic(expected = "invalid near/far")]
    fn perspective_rejects_bad_planes() {
        let _ = Mat4::perspective(1.0, 1.0, 1.0, 0.5);
    }
}
