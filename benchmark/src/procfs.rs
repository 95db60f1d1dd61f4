//! Children's CPU time and peak memory from Linux `/proc`, with the
//! standard library only.

use std::io;

/// Clock ticks per second of the `/proc/*/stat` time fields. Linux fixes
/// this user-visible rate (`USER_HZ`) at 100 on every architecture it
/// exports to user space, whatever the kernel's internal tick rate.
pub const TICKS_PER_S: f64 = 100.0;

/// `cutime + cstime` of a `/proc/<pid>/stat` line: user and system time of
/// the waited-for children, in clock ticks. The command name (field 2) may
/// hold spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_children_ticks(line: &str) -> Option<u64> {
    let rest = &line[line.rfind(')')? + 1..];
    // After the name, field 3 (state) comes first: cutime is field 16.
    let mut fields = rest.split_whitespace().skip(16 - 3);
    let cutime: u64 = fields.next()?.parse().ok()?;
    let cstime: u64 = fields.next()?.parse().ok()?;
    Some(cutime + cstime)
}

/// Parse the `VmHWM` (peak resident set) line of `/proc/<pid>/status`,
/// in kB. `None` when absent, as for a process that has already exited.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kb = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kb)
}

/// CPU seconds of this process's waited-for children so far.
pub fn children_cpu_s() -> io::Result<f64> {
    let line = std::fs::read_to_string("/proc/self/stat")?;
    let ticks = parse_children_ticks(&line)
        .ok_or_else(|| io::Error::other(format!("unparsable /proc/self/stat: {line}")))?;
    Ok(ticks as f64 / TICKS_PER_S)
}

/// Peak resident set of process `pid` in kB, if it is still running.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    parse_vm_hwm_kb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}
