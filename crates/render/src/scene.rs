//! Scene graph and camera.
//!
//! The AR application of the paper "renders high-quality 3D annotations to
//! label objects recognized in the camera view": a [`Scene`] holds loaded
//! models with per-instance transforms and a [`Camera`] produces the
//! matrices the rasterizer consumes.

use crate::math::{Mat4, Vec3};
use crate::mesh::Mesh;
use crate::raster::{draw, DrawStats, Framebuffer};

/// A perspective camera.
#[derive(Debug, Clone, Copy)]
pub struct Camera {
    /// Eye position.
    pub eye: Vec3,
    /// Look-at target.
    pub target: Vec3,
    /// Up direction.
    pub up: Vec3,
    /// Vertical field of view, radians.
    pub fov_y: f32,
    /// Near clip plane.
    pub near: f32,
    /// Far clip plane.
    pub far: f32,
}

impl Default for Camera {
    fn default() -> Self {
        Camera {
            eye: Vec3::new(0.0, 0.0, 5.0),
            target: Vec3::ZERO,
            up: Vec3::new(0.0, 1.0, 0.0),
            fov_y: std::f32::consts::FRAC_PI_3,
            near: 0.1,
            far: 100.0,
        }
    }
}

impl Camera {
    /// View-projection matrix for a target of the given aspect ratio.
    pub fn view_proj(&self, aspect: f32) -> Mat4 {
        let proj = Mat4::perspective(self.fov_y, aspect, self.near, self.far);
        let view = Mat4::look_at(self.eye, self.target, self.up);
        proj.mul(&view)
    }
}

/// One model instance in the scene.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Index into the scene's model list.
    pub model: usize,
    /// Object-to-world transform.
    pub transform: Mat4,
}

/// A renderable collection of models and instances.
#[derive(Default)]
pub struct Scene {
    models: Vec<Mesh>,
    instances: Vec<Instance>,
    /// Directional light, world space.
    pub light_dir: Vec3,
}

impl Scene {
    /// Create an empty scene lit from the default direction.
    pub fn new() -> Self {
        Scene {
            models: Vec::new(),
            instances: Vec::new(),
            light_dir: Vec3::new(-0.4, -0.8, -0.5),
        }
    }

    /// Add a model; returns its index for instancing.
    pub fn add_model(&mut self, mesh: Mesh) -> usize {
        self.models.push(mesh);
        self.models.len() - 1
    }

    /// Place an instance of model `model` at `transform`.
    ///
    /// # Panics
    /// Panics if `model` is not a valid model index.
    pub fn add_instance(&mut self, model: usize, transform: Mat4) {
        assert!(model < self.models.len(), "unknown model index {model}");
        self.instances.push(Instance { model, transform });
    }

    /// Render all instances with `camera` into `fb`, returning aggregate
    /// draw statistics.
    pub fn render(&self, camera: &Camera, fb: &mut Framebuffer) -> DrawStats {
        let aspect = fb.width() as f32 / fb.height() as f32;
        let vp = camera.view_proj(aspect);
        let mut total = DrawStats::default();
        for inst in &self.instances {
            let mvp = vp.mul(&inst.transform);
            let s = draw(
                fb,
                &self.models[inst.model],
                &mvp,
                &inst.transform,
                self.light_dir,
            );
            total.triangles_in += s.triangles_in;
            total.triangles_drawn += s.triangles_drawn;
            total.pixels_shaded += s.pixels_shaded;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procgen;

    #[test]
    fn instanced_scene_renders() {
        let mut scene = Scene::new();
        let sphere = scene.add_model(procgen::uv_sphere(10, 14));
        scene.add_instance(sphere, Mat4::translate(Vec3::new(-1.2, 0.0, 0.0)));
        scene.add_instance(sphere, Mat4::translate(Vec3::new(1.2, 0.0, 0.0)));
        let mut fb = Framebuffer::new(64, 64);
        let stats = scene.render(&Camera::default(), &mut fb);
        assert_eq!(scene.models.len(), 1);
        assert_eq!(scene.instances.len(), 2);
        // Both instances contribute triangles.
        assert_eq!(
            stats.triangles_in,
            2 * procgen::uv_sphere(10, 14).triangle_count() as u64
        );
        assert!(stats.pixels_shaded > 0);
        // Two blobs: left and right of center covered, top corner empty.
        assert!(fb.depth_at(18, 32).is_finite());
        assert!(fb.depth_at(46, 32).is_finite());
        assert!(!fb.depth_at(0, 0).is_finite());
    }

    #[test]
    #[should_panic(expected = "unknown model index")]
    fn bad_instance_index_panics() {
        let mut scene = Scene::new();
        scene.add_instance(0, Mat4::IDENTITY);
    }

    #[test]
    fn empty_scene_draws_nothing() {
        let scene = Scene::new();
        let mut fb = Framebuffer::new(16, 16);
        let stats = scene.render(&Camera::default(), &mut fb);
        assert_eq!(stats, DrawStats::default());
        assert_eq!(fb.coverage(), 0.0);
    }
}
