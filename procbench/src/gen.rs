//! Seeded input generation: guest programs, their predicted results,
//! and the fleet and script shapes every workload draws from its seed.
//!
//! Every guest keeps its iteration count in `r10` and a running checksum
//! in `r11`. At the loop head (label `head`) the checksum equals
//! [`Guest::predict`] of the count, whatever the schedule was, so a
//! check after the timed phase needs only the two registers.

/// xorshift64* — the benchmark's only source of randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// One register operation of a generated body, applied to `r12`.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Addi(i32),
    Muli(i32),
    Xori(i32),
}

impl Op {
    fn random(rng: &mut Rng) -> Op {
        let imm = rng.range(1, 4000) as i32;
        match rng.next_u64() % 3 {
            0 => Op::Addi(imm),
            1 => Op::Muli(imm | 1),
            _ => Op::Xori(imm),
        }
    }

    fn asm(self) -> String {
        match self {
            Op::Addi(c) => format!("    addi r12, r12, {c}\n"),
            Op::Muli(c) => format!("    muli r12, r12, {c}\n"),
            Op::Xori(c) => format!("    xori r12, r12, {c}\n"),
        }
    }

    fn apply(self, x: u64) -> u64 {
        match self {
            Op::Addi(c) => x.wrapping_add(c as i64 as u64),
            Op::Muli(c) => x.wrapping_mul(c as i64 as u64),
            Op::Xori(c) => x ^ (c as i64 as u64),
        }
    }
}

/// What one guest does per iteration of its main loop.
#[derive(Clone, Debug)]
pub enum Body {
    /// An inner loop of `reps` passes over `ops`.
    Alu { ops: Vec<Op>, reps: u64 },
    /// A data-dependent branch per inner pass (odd: `3x+1`, even: `x/2`).
    Branchy { reps: u64, bias: i32 },
    /// Straight-line text: `ops` once, unrolled.
    Text { ops: Vec<Op> },
    /// `stores` store/load pairs per iteration over `pages` pages of data.
    Store {
        pages: u64,
        stores: u64,
        stride: u64,
    },
    /// getpid every iteration, nanosleep every `sleep_every`, a pipe
    /// write/read round trip every `pipe_every`.
    Syscalls {
        pid: u64,
        sleep_every: u64,
        sleep_ticks: u64,
        pipe_every: u64,
    },
}

/// A generated guest program.
#[derive(Clone, Debug)]
pub struct Guest {
    pub name: String,
    pub body: Body,
    /// Multiplier of the checksum fold `acc = acc * mul + x`.
    pub mul: i32,
    /// A second LWP spinning on its own loop.
    pub threaded: bool,
}

impl Guest {
    /// Assembly source. The second LWP (if any) never reaches `head`.
    pub fn source(&self) -> String {
        let mut s = String::from("_start:\n    movi r10, 0\n    movi r11, 0\n");
        if self.threaded {
            s.push_str(
                "    movi rv, 73\n    la   a0, side\n    addi a1, sp, -16384\n    movi a2, 0\n    syscall\n",
            );
        }
        match &self.body {
            Body::Store { pages, .. } => {
                // The working set is mapped at run time (anonymous,
                // read/write), so the image stays small.
                s.push_str(&format!(
                    "    movi rv, 70\n    movi a0, 0\n    li   a1, {len}\n    movi a2, 3\n    movi a3, 2\n    movi a4, -1\n    movi a5, 0\n    syscall\n    mov  r18, rv\n    li   r17, {len}\n",
                    len = pages * 4096
                ));
            }
            Body::Syscalls { .. } => {
                s.push_str("    movi rv, 42\n    la   a0, fds\n    syscall\n");
            }
            _ => {}
        }
        s.push_str("head:\n    mov  r12, r10\n");
        match &self.body {
            Body::Alu { ops, reps } => {
                s.push_str(&format!("    movi r13, {reps}\ninner:\n"));
                for op in ops {
                    s.push_str(&op.asm());
                }
                s.push_str("    addi r13, r13, -1\n    bne  r13, zero, inner\n");
            }
            Body::Branchy { reps, bias } => {
                s.push_str(&format!(
                    "    movi r13, {reps}\ninner:\n    addi r12, r12, {bias}\n    andi r14, r12, 1\n    beq  r14, zero, even\n    muli r12, r12, 3\n    addi r12, r12, 1\n    jmp  next\neven:\n    shri r12, r12, 1\nnext:\n    addi r13, r13, -1\n    bne  r13, zero, inner\n"
                ));
            }
            Body::Text { ops } => {
                for op in ops {
                    s.push_str(&op.asm());
                }
            }
            Body::Store { stores, stride, .. } => {
                s.push_str(&format!("    muli r15, r10, {}\n", stores * stride));
                for j in 0..*stores {
                    s.push_str(&format!(
                        "    addi r16, r15, {off}\n    rem  r16, r16, r17\n    andi r16, r16, -8\n    add  r16, r16, r18\n    addi r19, r10, {j}\n    st   r19, [r16]\n    ld   r19, [r16]\n    add  r12, r12, r19\n",
                        off = j * stride
                    ));
                }
            }
            Body::Syscalls {
                sleep_every,
                sleep_ticks,
                pipe_every,
                ..
            } => {
                s.push_str(&format!(
                    "    movi rv, 20\n    syscall\n    add  r12, r12, rv\n    movi r14, {sleep_every}\n    rem  r13, r10, r14\n    bne  r13, zero, nosleep\n    movi rv, 69\n    movi a0, {sleep_ticks}\n    syscall\nnosleep:\n    movi r14, {pipe_every}\n    rem  r13, r10, r14\n    bne  r13, zero, nopipe\n    la   a0, fds\n    ld   a0, [a0+8]\n    movi rv, 4\n    la   a1, buf\n    movi a2, 8\n    syscall\n    la   a0, fds\n    ld   a0, [a0]\n    movi rv, 3\n    la   a1, buf\n    movi a2, 8\n    syscall\n    add  r12, r12, rv\nnopipe:\n"
                ));
            }
        }
        s.push_str(&format!(
            "    muli r11, r11, {}\n    add  r11, r11, r12\n    addi r10, r10, 1\n    jmp  head\n",
            self.mul
        ));
        if self.threaded {
            s.push_str("side:\n    addi r20, r20, 3\n    xori r20, r20, 5\n    jmp  side\n");
        }
        s.push_str(".data\n.align 8\nfds: .space 16\nbuf: .space 16\n");
        s
    }

    /// The body's result `x` for iteration `n`.
    fn x(&self, n: u64) -> u64 {
        match &self.body {
            Body::Alu { ops, reps } => {
                let mut x = n;
                for _ in 0..*reps {
                    for op in ops {
                        x = op.apply(x);
                    }
                }
                x
            }
            Body::Branchy { reps, bias } => {
                let mut x = n;
                for _ in 0..*reps {
                    x = x.wrapping_add(*bias as i64 as u64);
                    x = if x & 1 == 1 {
                        x.wrapping_mul(3).wrapping_add(1)
                    } else {
                        x >> 1
                    };
                }
                x
            }
            Body::Text { ops } => ops.iter().fold(n, |x, op| op.apply(x)),
            Body::Store { stores, .. } => (0..*stores).fold(n, |x, j| x.wrapping_add(n + j)),
            Body::Syscalls {
                pid, pipe_every, ..
            } => {
                let pipe = if n.is_multiple_of(*pipe_every) { 8 } else { 0 };
                n.wrapping_add(*pid).wrapping_add(pipe)
            }
        }
    }
}

/// The checksum a guest holds after `n` whole iterations, folded
/// incrementally: successive checks of one guest only fold the
/// iterations since the last one.
#[derive(Clone, Debug, Default)]
pub struct Predictor {
    n: u64,
    acc: u64,
}

impl Predictor {
    pub fn advance(&mut self, g: &Guest, n: u64) -> u64 {
        if n < self.n {
            *self = Predictor::default();
        }
        while self.n < n {
            self.acc = self
                .acc
                .wrapping_mul(g.mul as i64 as u64)
                .wrapping_add(g.x(self.n));
            self.n += 1;
        }
        self.acc
    }
}

fn ops(rng: &mut Rng, n: u64) -> Vec<Op> {
    (0..n).map(|_| Op::random(rng)).collect()
}

/// The seed picks every guest's instructions, constants, strides and
/// multipliers; the sizes that set how much work an iteration is (loop
/// lengths, working sets, text lengths) are fixed, so runs with
/// different seeds measure the same amount of work.
///
/// The eight guests of guest-farm: two ALU loops, stores below and above
/// the 64-entry dTLB, text below and above the icache and superblock
/// capacity, a syscall mix, and a two-LWP guest. The syscall guest's
/// pid is part of its checksum and is filled in once it is spawned.
pub fn farm(rng: &mut Rng) -> Vec<Guest> {
    let mut mul = || (rng.range(3, 999) | 1) as i32;
    let muls: Vec<i32> = (0..8).map(|_| mul()).collect();
    let mut gs = Vec::new();
    let mut push = |name: &str, body: Body, threaded: bool| {
        let i = gs.len();
        gs.push(Guest {
            name: name.to_string(),
            body,
            mul: muls[i],
            threaded,
        });
    };
    push(
        "alu",
        Body::Alu {
            ops: ops(rng, 3),
            reps: 32,
        },
        false,
    );
    push(
        "branchy",
        Body::Branchy {
            reps: 32,
            bias: rng.range(1, 99) as i32,
        },
        false,
    );
    push(
        "store-small",
        Body::Store {
            pages: 28,
            stores: 6,
            stride: 4096 + 8 * rng.range(1, 64),
        },
        false,
    );
    push(
        "store-large",
        Body::Store {
            pages: 128,
            stores: 6,
            stride: 4096 + 8 * rng.range(1, 64),
        },
        false,
    );
    push("text-small", Body::Text { ops: ops(rng, 128) }, false);
    push(
        "text-large",
        Body::Text {
            ops: ops(rng, 10_240),
        },
        false,
    );
    push(
        "syscalls",
        Body::Syscalls {
            pid: 0,
            sleep_every: 11,
            sleep_ticks: 1000,
            pipe_every: 4,
        },
        false,
    );
    push(
        "threaded",
        Body::Alu {
            ops: ops(rng, 3),
            reps: 32,
        },
        true,
    );
    gs
}

/// The sdb-session target, shaped like `/bin/cruncher`: an inner loop of
/// `inner` passes between calls to `tick`, and a call to `tock` every
/// `tock_every` ticks. `tick` stores its call count into `counter`,
/// which shares a page with the `spare` cells the script watches and
/// pokes.
pub fn crunch_target(rng: &mut Rng) -> String {
    let (inner, tock_every) = (256, 3);
    format!(
        r#"
_start:
    movi r10, 0
    movi r11, 0
    la   r13, counter
outer:
    movi a1, 0
    movi a2, {inner}
inner:
    addi a1, a1, 1
    xori r12, a1, {salt}
    beq  a1, a2, hot
    jmp  inner
hot:
    call tick
    movi r14, {tock_every}
    rem  r15, r10, r14
    bne  r15, zero, outer
    call tock
    jmp  outer
tick:
    addi r10, r10, 1
    st   r10, [r13]
    ret
tock:
    addi r11, r11, 1
    ret
.data
.align 8
counter: .word 0
spare:   .word 0
spare2:  .word 0
"#,
        salt = rng.range(1, 4000)
    )
}

/// A seeded syscall-mix program for `truss -f`: `rounds` rounds, each of
/// `getpids` getpid calls, `opens` open/read/close of `/etc/motd`,
/// `stats` stat calls and `forks` fork+wait pairs (the child calls
/// getpid once and exits).
#[derive(Clone, Debug)]
pub struct SyscallMix {
    pub rounds: u64,
    pub getpids: u64,
    pub opens: u64,
    pub stats: u64,
    pub forks: u64,
}

impl SyscallMix {
    pub fn random(rng: &mut Rng, rounds: u64) -> SyscallMix {
        SyscallMix {
            rounds,
            getpids: rng.range(2, 3),
            opens: 1 + rng.range(0, 1),
            stats: 1 + rng.range(0, 1),
            forks: 1,
        }
    }

    pub fn source(&self) -> String {
        let mut s = format!("_start:\n    movi r20, {}\nround:\n", self.rounds);
        for _ in 0..self.getpids {
            s.push_str("    movi rv, 20\n    syscall\n");
        }
        for _ in 0..self.opens {
            s.push_str(
                "    movi rv, 5\n    la   a0, path\n    movi a1, 0\n    syscall\n    mov  r21, rv\n    mov  a0, r21\n    movi rv, 3\n    la   a1, buf\n    movi a2, 16\n    syscall\n    mov  a0, r21\n    movi rv, 6\n    syscall\n",
            );
        }
        for _ in 0..self.stats {
            s.push_str("    movi rv, 18\n    la   a0, path\n    la   a1, buf\n    syscall\n");
        }
        for i in 0..self.forks {
            s.push_str(&format!(
                "    movi rv, 2\n    syscall\n    beq  rv, zero, child\n    movi rv, 7\n    movi a0, 0\n    syscall\n    jmp  forked{i}\nforked{i}:\n"
            ));
        }
        s.push_str(
            "    addi r20, r20, -1\n    bne  r20, zero, round\n    movi rv, 1\n    movi a0, 0\n    syscall\nchild:\n    movi rv, 20\n    syscall\n    movi rv, 1\n    movi a0, 0\n    syscall\n.data\n.align 8\npath: .asciz \"/etc/motd\"\n.align 8\nbuf: .space 256\n",
        );
        s
    }
}

/// One fleet member of remote-console.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Member {
    /// Sleeps `ticks` at a time, doing almost nothing.
    Sleeper { ticks: u64 },
    /// Wakes every `ticks`, does `work` loop passes, sleeps again.
    Ticker { ticks: u64, work: u64 },
}

impl Member {
    pub fn source(self) -> String {
        match self {
            Member::Sleeper { ticks } => format!(
                "_start:\nloop:\n    movi rv, 69\n    li   a0, {ticks}\n    syscall\n    jmp  loop\n"
            ),
            Member::Ticker { ticks, work } => format!(
                "_start:\nloop:\n    movi r13, {work}\nwork:\n    addi r12, r12, 7\n    addi r13, r13, -1\n    bne  r13, zero, work\n    movi rv, 69\n    li   a0, {ticks}\n    syscall\n    jmp  loop\n"
            ),
        }
    }
}

/// The remote-console fleet: about a thousand members, a fifth of them
/// tickers. Programs are drawn from a few variants so the install
/// stays small; the mix and the order come from the seed.
pub fn fleet(rng: &mut Rng, size: usize) -> (Vec<Member>, Vec<usize>) {
    let mut variants: Vec<Member> = (0..4)
        .map(|_| Member::Sleeper {
            ticks: rng.range(2_000_000, 8_000_000),
        })
        .collect();
    for _ in 0..4 {
        variants.push(Member::Ticker {
            ticks: rng.range(44_000, 46_000),
            work: rng.range(19, 21),
        });
    }
    // Every fifth member is a ticker; which variant, and where it sits
    // in spawn order, comes from the seed.
    let mut picks: Vec<usize> = (0..size)
        .map(|i| if i % 5 == 0 { 4 + rng.range(0, 3) } else { rng.range(0, 3) } as usize)
        .collect();
    for i in (1..picks.len()).rev() {
        picks.swap(i, rng.range(0, i as u64) as usize);
    }
    (variants, picks)
}
