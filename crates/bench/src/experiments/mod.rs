//! The registry: one module per paper figure or extension table, each with a
//! `print` that writes its table to stdout. `bench/golden/<name>.txt` holds
//! each table as committed, and EXPERIMENTS.md quotes it.

/// Writes each name once: the `mod` line and the [`ALL`] entry.
macro_rules! experiments {
    ($($name:ident),* $(,)?) => {
        $(mod $name;)*

        /// Every experiment by name, in the order `coic-bench` lists them.
        pub const ALL: [(&str, fn()); 18] = [$((stringify!($name), $name::print)),*];
    };
}

experiments!(
    fig2a,
    fig2b,
    ext_adaptive,
    ext_cluster,
    ext_compaction,
    ext_coop,
    ext_crossapp,
    ext_descriptor,
    ext_eviction,
    ext_exectier,
    ext_layercache,
    ext_loss,
    ext_mobility,
    ext_panorama,
    ext_prefetch,
    ext_privacy,
    ext_sharing,
    ext_threshold,
);

#[cfg(test)]
mod tests {
    use super::ALL;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_match_the_goldens() {
        let names: BTreeSet<&str> = ALL.iter().map(|(name, _)| *name).collect();
        assert_eq!(names.len(), ALL.len(), "a name is registered twice");
        let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/golden");
        let stems: BTreeSet<String> = std::fs::read_dir(&golden)
            .expect("bench/golden is readable")
            .map(|entry| entry.expect("directory entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
            .map(|path| {
                path.file_stem()
                    .expect("file stem")
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        assert_eq!(names, stems.iter().map(String::as_str).collect());
    }
}
