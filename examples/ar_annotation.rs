//! AR annotation end to end — the paper's evaluation application.
//!
//! "We implement an AR application upon CoIC, which renders high-quality 3D
//! annotations to label objects recognized in the camera view."
//!
//! This example walks the full pipeline for one user at a crossroads:
//! 1. the camera observes a landmark (synthetic scene),
//! 2. the client extracts a SimNet descriptor and queries the edge,
//! 3. miss → cloud recognizes, edge caches; hit → cached label,
//! 4. the recognized label picks a 3D annotation model, which the software
//!    rasterizer draws over the camera view (printed as ASCII art).
//!
//! Run with: `cargo run --release --example ar_annotation`

use coic::core::{
    ClientConfig, ClientLogic, CloudService, ComputeConfig, EdgeConfig, EdgeService, Held,
    ModelLibrary, PanoLibrary, TaskResult,
};
use coic::render::{procgen, Camera, Framebuffer, Mat4, Scene, Vec3};
use coic::vision::{ObjectClass, SceneGenerator};
use coic::workload::{Request, RequestKind, UserId, ZoneId};
use std::sync::Arc;

fn ascii(fb: &Framebuffer) {
    let ramp = b" .:-=+*#%@";
    for y in (0..fb.height()).step_by(2) {
        let mut line = String::new();
        for x in 0..fb.width() {
            let v = fb.get(x, y) as usize * (ramp.len() - 1) / 255;
            line.push(ramp[v] as char);
        }
        println!("{line}");
    }
}

fn main() {
    let models = Arc::new(ModelLibrary::new());
    let panos = Arc::new(PanoLibrary::new(64));
    let compute = ComputeConfig::default();
    let classes: Vec<_> = (0..6).map(ObjectClass).collect();
    let gen = SceneGenerator::new(64);

    let client = ClientLogic::new(
        ClientConfig::default(),
        compute,
        models.clone(),
        panos.clone(),
    );
    let edge = EdgeService::new(&EdgeConfig::default());
    let cloud = CloudService::new(&classes, &gen, compute, models, panos, 42);

    println!("AR annotation walkthrough — landmark class 3, three sightings\n");
    for (i, view_seed) in [100u64, 101, 102].iter().enumerate() {
        let req = Request {
            user: UserId(0),
            zone: ZoneId(0),
            at_ns: 0,
            kind: RequestKind::Recognition {
                class: 3,
                view_seed: *view_seed,
            },
        };
        let prepared = client.prepare(&req);
        let cached = edge.lookup(&prepared.descriptor, i as u64).into_value();
        let label = match cached.as_deref().map(Held::result) {
            Some(TaskResult::Recognition(r)) => {
                println!("sighting {i}: EDGE HIT  → label {}", r.label);
                r.label
            }
            Some(other) => panic!("unexpected cached result {other:?}"),
            None => {
                let (result, cost_ns) = cloud.execute(&prepared.task);
                edge.insert(&prepared.descriptor, Held::new(result.clone()), i as u64);
                match result {
                    TaskResult::Recognition(r) => {
                        println!(
                            "sighting {i}: MISS → cloud inference ({:.1} ms) → label {}",
                            cost_ns as f64 / 1e6,
                            r.label
                        );
                        r.label
                    }
                    _ => unreachable!("recognition task yields recognition result"),
                }
            }
        };

        // Render the 3D annotation the AR app overlays for this label: a
        // spinning marker whose shape is picked by the recognized class.
        if i == 2 {
            println!("\nannotation for label {label} (software rasterizer):\n");
            let mut scene = Scene::new();
            let mesh = match label % 3 {
                0 => procgen::uv_sphere(12, 18),
                1 => procgen::avatar(1),
                _ => procgen::cube(),
            };
            let id = scene.add_model(mesh);
            scene.add_instance(id, Mat4::rotate_y(0.6));
            let camera = Camera {
                eye: Vec3::new(0.0, 0.8, 3.2),
                ..Camera::default()
            };
            let mut fb = Framebuffer::new(56, 40);
            let stats = scene.render(&camera, &mut fb);
            ascii(&fb);
            println!(
                "\n({} triangles submitted, {} drawn, {} pixels shaded)",
                stats.triangles_in, stats.triangles_drawn, stats.pixels_shaded
            );
            // Also render a high-res version to an actual image file.
            let mut hi = Framebuffer::new(512, 512);
            scene.render(&camera, &mut hi);
            let path = std::env::temp_dir().join("coic_annotation.pgm");
            if coic::render::write_framebuffer_pgm(&path, &hi).is_ok() {
                println!("(512×512 render written to {})", path.display());
            }
        }
    }

    let stats = edge.recog_metrics();
    println!(
        "\nedge recognition cache: {} hits / {} lookups ({:.0}% hit ratio)",
        stats.hits,
        stats.lookups(),
        stats.hit_ratio() * 100.0
    );
}
