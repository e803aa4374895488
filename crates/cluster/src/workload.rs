//! Parallel-client workload driver.

use std::sync::Barrier;

use crate::testbed::Testbed;
use dpfs_core::{Dpfs, Granularity};

/// Run `nclients` compute nodes in parallel. Each thread gets its own DPFS
/// client (rank = thread index) and runs `work(rank, client)`; all start
/// together behind a barrier, and what each returns comes back in rank
/// order.
///
/// Panics in worker threads propagate (test ergonomics).
pub fn run_clients<T, F>(
    testbed: &Testbed,
    nclients: usize,
    combine: bool,
    granularity: Granularity,
    work: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &Dpfs) -> T + Sync,
{
    let barrier = Barrier::new(nclients);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nclients)
            .map(|rank| {
                let (barrier, work) = (&barrier, &work);
                let client = testbed.client_with(rank, combine, granularity);
                scope.spawn(move || {
                    barrier.wait();
                    work(rank, &client)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfs_core::{Hint, Region, Shape};

    #[test]
    fn parallel_clients_disjoint_row_bands() {
        let tb = Testbed::unthrottled(4).unwrap();
        let shape = Shape::new(vec![32, 32]).unwrap();
        let hint = Hint::multidim(shape.clone(), Shape::new(vec![8, 8]).unwrap(), 1);
        tb.client(0, true).create("/bands", &hint).unwrap();

        let nclients = 4;
        let rows_per = 32 / nclients as u64;
        let moved = run_clients(&tb, nclients, true, Granularity::Brick, |rank, client| {
            let mut f = client.open("/bands").unwrap();
            let region = Region::new(vec![rank as u64 * rows_per, 0], vec![rows_per, 32]).unwrap();
            let data = vec![rank as u8 + 1; (rows_per * 32) as usize];
            f.write_region(&region, &data).unwrap();
            data.len() as u64
        });
        assert_eq!(moved, vec![rows_per * 32; nclients]);

        // read everything back and verify band contents
        let mut f = tb.client(0, true).open("/bands").unwrap();
        let all = f.read_region(&shape.full_region()).unwrap();
        for (i, &b) in all.iter().enumerate() {
            let row = (i / 32) as u64;
            let expect = (row / rows_per) as u8 + 1;
            assert_eq!(b, expect, "element {i}");
        }
    }
}
