// fraglint-fixture: no-raw-spawn
//! Fixture: raw thread fan-out outside `core::pool`.

pub fn fan_out(jobs: Vec<Job>) {
    for job in jobs {
        std::thread::spawn(move || job.run());
    }
}

pub fn fan_out_scoped(jobs: &[Job]) {
    std::thread::scope(|s| {
        for job in jobs {
            s.spawn(move || job.run());
        }
    });
}
