//! The instruction interpreter: fetch/decode/execute for one goroutine step.

use crate::goroutine::{Blocked, Gid, WaitReason};
use crate::instr::{BinOp, Instr};
use crate::object::{Object, SliceData};
use crate::value::Value;
use crate::vm::{go_id, Exec, Finalizer, Vm};
use golf_trace::TraceEvent;
use rand::Rng;

impl Vm {
    /// Executes one instruction of `gid`. The pc is advanced *before*
    /// execution so blocking operations resume after themselves on wake.
    pub(crate) fn exec_one(&mut self, gid: Gid) -> Exec {
        // A pending cond-wait relock takes priority over the next instruction.
        if let Some(mu) = self.g_mut(gid).and_then(|g| g.pending_lock.take()) {
            if let e @ Exec::Parked = self.exec_lock(gid, Value::Ref(mu), WaitReason::SyncMutexLock)
            {
                return e;
            }
        }

        let g = &mut self.goroutines[gid.index() as usize];
        let frame = g.frames.last_mut().expect("executing frameless goroutine");
        let func = frame.func;
        let pc = frame.pc;
        let code = &self.program.func(func).code;
        debug_assert!(pc < code.len(), "pc past end of {}", self.program.func(func).name);
        let instr = code[pc].clone();
        frame.pc = pc + 1;
        self.instrs += 1;

        match instr {
            Instr::Const(dst, v) => {
                self.write_var(gid, dst, v);
                Exec::Continue
            }
            Instr::Copy(dst, src) => {
                let v = self.read_var(gid, src);
                self.write_var(gid, dst, v);
                Exec::Continue
            }
            Instr::Bin(op, dst, a, b) => {
                let va = self.read_var(gid, a);
                let vb = self.read_var(gid, b);
                match eval_bin(op, va, vb) {
                    Some(v) => {
                        self.write_var(gid, dst, v);
                        Exec::Continue
                    }
                    None => self.goroutine_panic(gid, "invalid operands to binary operator"),
                }
            }
            Instr::Not(dst, src) => {
                let v = self.read_var(gid, src);
                self.write_var(gid, dst, Value::Bool(!v.truthy()));
                Exec::Continue
            }
            Instr::RandInt(dst, bound) => {
                let v = if bound <= 0 { 0 } else { self.rng.gen_range(0..bound) };
                self.write_var(gid, dst, Value::Int(v));
                Exec::Continue
            }

            Instr::Jump(t) => {
                self.set_pc(gid, t);
                Exec::Continue
            }
            Instr::JumpIf(cond, t) => {
                if self.read_var(gid, cond).truthy() {
                    self.set_pc(gid, t);
                }
                Exec::Continue
            }
            Instr::JumpIfNot(cond, t) => {
                if !self.read_var(gid, cond).truthy() {
                    self.set_pc(gid, t);
                }
                Exec::Continue
            }
            Instr::Call { func: callee, args, dst } => {
                let f = self.program.func(callee);
                debug_assert_eq!(args.len(), f.n_params, "arity mismatch calling {}", f.name);
                let n_locals = f.n_locals;
                let mut locals = vec![Value::Nil; n_locals];
                for (i, a) in args.iter().enumerate() {
                    locals[i] = self.read_var(gid, *a);
                }
                let g = &mut self.goroutines[gid.index() as usize];
                g.frames.push(crate::goroutine::Frame {
                    func: callee,
                    pc: 0,
                    locals,
                    ret_dst: dst,
                });
                Exec::Continue
            }
            Instr::Return(val) => {
                let v = val.map(|v| self.read_var(gid, v)).unwrap_or(Value::Nil);
                let g = &mut self.goroutines[gid.index() as usize];
                let frame = g.frames.pop().expect("return without frame");
                if g.frames.is_empty() {
                    self.finish_goroutine(gid);
                    return Exec::Finished;
                }
                if let Some(dst) = frame.ret_dst {
                    self.write_var(gid, dst, v);
                }
                Exec::Continue
            }
            Instr::Go { func, args, site } => {
                let vals: Vec<Value> = args.iter().map(|a| self.read_var(gid, *a)).collect();
                self.spawn(func, &vals, Some(site), false, Some(gid));
                Exec::Continue
            }
            Instr::Yield => Exec::Yielded,
            Instr::Goexit => {
                self.finish_goroutine(gid);
                Exec::Finished
            }
            Instr::Sleep(ticks) => {
                let wake = self.tick + ticks.max(1);
                self.park(gid, WaitReason::Sleep, Blocked::None);
                if let Some(g) = self.g_mut(gid) {
                    g.wake_tick = Some(wake);
                }
                Exec::Parked
            }
            Instr::SleepVar(v) => {
                let ticks = self.read_var(gid, v).as_int().unwrap_or(1).max(1) as u64;
                let wake = self.tick + ticks;
                self.park(gid, WaitReason::Sleep, Blocked::None);
                if let Some(g) = self.g_mut(gid) {
                    g.wake_tick = Some(wake);
                }
                Exec::Parked
            }

            Instr::NewStruct { ty, fields, dst } => {
                debug_assert_eq!(
                    fields.len(),
                    self.program.struct_ty(ty).fields.len(),
                    "field arity mismatch constructing {}",
                    self.program.struct_ty(ty).name
                );
                let vals: Vec<Value> = fields.iter().map(|f| self.read_var(gid, *f)).collect();
                let h = self.heap.alloc(Object::Struct { ty, fields: vals });
                self.write_var(gid, dst, Value::Ref(h));
                Exec::Continue
            }
            Instr::GetField(dst, obj, idx) => match self.read_var(gid, obj) {
                Value::Ref(h) => match self.heap.get(h) {
                    Some(Object::Struct { fields, .. }) => {
                        let Some(v) = fields.get(idx as usize).copied() else {
                            return self.goroutine_panic(gid, "field index out of range");
                        };
                        self.write_var(gid, dst, v);
                        Exec::Continue
                    }
                    _ => self.goroutine_panic(gid, "field access on non-struct"),
                },
                _ => self.goroutine_panic(gid, "nil pointer dereference"),
            },
            Instr::SetField(obj, idx, src) => {
                let v = self.read_var(gid, src);
                match self.read_var(gid, obj) {
                    Value::Ref(h) => match self.heap.get_mut(h) {
                        Some(Object::Struct { fields, .. }) => {
                            let Some(slot) = fields.get_mut(idx as usize) else {
                                return self.goroutine_panic(gid, "field index out of range");
                            };
                            *slot = v;
                            Exec::Continue
                        }
                        _ => self.goroutine_panic(gid, "field access on non-struct"),
                    },
                    _ => self.goroutine_panic(gid, "nil pointer dereference"),
                }
            }
            Instr::NewSlice(dst) => {
                let h = self.heap.alloc(Object::Slice(SliceData::default()));
                self.write_var(gid, dst, Value::Ref(h));
                Exec::Continue
            }
            Instr::SlicePush(slice, val) => {
                let v = self.read_var(gid, val);
                match self.read_var(gid, slice) {
                    Value::Ref(h) => match self.heap.get_mut(h) {
                        Some(Object::Slice(vs)) => {
                            vs.push(v);
                            self.heap.refresh_size(h);
                            Exec::Continue
                        }
                        _ => self.goroutine_panic(gid, "append to non-slice"),
                    },
                    _ => self.goroutine_panic(gid, "nil pointer dereference"),
                }
            }
            Instr::SliceGet(dst, slice, idx) => {
                let i = self.read_var(gid, idx).as_int().unwrap_or(-1);
                match self.read_var(gid, slice) {
                    Value::Ref(h) => match self.heap.get(h) {
                        Some(Object::Slice(vs)) => {
                            match usize::try_from(i).ok().and_then(|i| vs.get(i)) {
                                Some(v) => {
                                    let v = *v;
                                    self.write_var(gid, dst, v);
                                    Exec::Continue
                                }
                                None => self.goroutine_panic(gid, "index out of range"),
                            }
                        }
                        _ => self.goroutine_panic(gid, "index of non-slice"),
                    },
                    _ => self.goroutine_panic(gid, "nil pointer dereference"),
                }
            }
            Instr::SliceSet(slice, idx, val) => {
                let i = self.read_var(gid, idx).as_int().unwrap_or(-1);
                let v = self.read_var(gid, val);
                match self.read_var(gid, slice) {
                    Value::Ref(h) => match self.heap.get_mut(h) {
                        Some(Object::Slice(vs)) => {
                            match usize::try_from(i).ok().and_then(|i| vs.set(i, v)) {
                                Some(_) => Exec::Continue,
                                None => self.goroutine_panic(gid, "index out of range"),
                            }
                        }
                        _ => self.goroutine_panic(gid, "index of non-slice"),
                    },
                    _ => self.goroutine_panic(gid, "nil pointer dereference"),
                }
            }
            Instr::SliceLen(dst, slice) => match self.read_var(gid, slice) {
                Value::Ref(h) => match self.heap.get(h) {
                    Some(Object::Slice(vs)) => {
                        let n = vs.len() as i64;
                        self.write_var(gid, dst, Value::Int(n));
                        Exec::Continue
                    }
                    _ => self.goroutine_panic(gid, "len of non-slice"),
                },
                _ => self.goroutine_panic(gid, "nil pointer dereference"),
            },
            Instr::NewMap(dst) => {
                let h = self.heap.alloc(Object::Map(Default::default()));
                self.write_var(gid, dst, Value::Ref(h));
                Exec::Continue
            }
            Instr::MapGet { dst, map, key, ok_dst } => {
                let k = self.read_var(gid, key);
                match self.read_var(gid, map) {
                    Value::Ref(h) => match self.heap.get(h) {
                        Some(Object::Map(m)) => {
                            let found = m.get(&k).copied();
                            self.write_var(gid, dst, found.unwrap_or(Value::Nil));
                            if let Some(ok) = ok_dst {
                                self.write_var(gid, ok, Value::Bool(found.is_some()));
                            }
                            Exec::Continue
                        }
                        _ => self.goroutine_panic(gid, "index of non-map"),
                    },
                    // Reads on a nil map yield the zero value (Go semantics).
                    Value::Nil => {
                        self.write_var(gid, dst, Value::Nil);
                        if let Some(ok) = ok_dst {
                            self.write_var(gid, ok, Value::Bool(false));
                        }
                        Exec::Continue
                    }
                    _ => self.goroutine_panic(gid, "index of non-map"),
                }
            }
            Instr::MapSet { map, key, val } => {
                let k = self.read_var(gid, key);
                let v = self.read_var(gid, val);
                match self.read_var(gid, map) {
                    Value::Ref(h) => match self.heap.get_mut(h) {
                        Some(Object::Map(m)) => {
                            m.insert(k, v);
                            self.heap.refresh_size(h);
                            Exec::Continue
                        }
                        _ => self.goroutine_panic(gid, "assignment to non-map"),
                    },
                    // Writes to a nil map panic (Go semantics).
                    Value::Nil => self.goroutine_panic(gid, "assignment to entry in nil map"),
                    _ => self.goroutine_panic(gid, "assignment to non-map"),
                }
            }
            Instr::MapDelete { map, key } => {
                let k = self.read_var(gid, key);
                match self.read_var(gid, map) {
                    Value::Ref(h) => match self.heap.get_mut(h) {
                        Some(Object::Map(m)) => {
                            m.remove(&k);
                            self.heap.refresh_size(h);
                            Exec::Continue
                        }
                        _ => self.goroutine_panic(gid, "delete on non-map"),
                    },
                    Value::Nil => Exec::Continue, // delete on nil map is a no-op
                    _ => self.goroutine_panic(gid, "delete on non-map"),
                }
            }
            Instr::MapLen(dst, map) => match self.read_var(gid, map) {
                Value::Ref(h) => match self.heap.get(h) {
                    Some(Object::Map(m)) => {
                        let n = m.len() as i64;
                        self.write_var(gid, dst, Value::Int(n));
                        Exec::Continue
                    }
                    _ => self.goroutine_panic(gid, "len of non-map"),
                },
                Value::Nil => {
                    self.write_var(gid, dst, Value::Int(0));
                    Exec::Continue
                }
                _ => self.goroutine_panic(gid, "len of non-map"),
            },
            Instr::NewCell(dst, src) => {
                let v = self.read_var(gid, src);
                let h = self.heap.alloc(Object::Cell(v));
                self.write_var(gid, dst, Value::Ref(h));
                Exec::Continue
            }
            Instr::CellGet(dst, cell) => match self.read_var(gid, cell) {
                Value::Ref(h) => match self.heap.get(h) {
                    Some(Object::Cell(v)) => {
                        let v = *v;
                        self.write_var(gid, dst, v);
                        Exec::Continue
                    }
                    _ => self.goroutine_panic(gid, "deref of non-cell"),
                },
                _ => self.goroutine_panic(gid, "nil pointer dereference"),
            },
            Instr::CellSet(cell, src) => {
                let v = self.read_var(gid, src);
                match self.read_var(gid, cell) {
                    Value::Ref(h) => match self.heap.get_mut(h) {
                        Some(Object::Cell(slot)) => {
                            *slot = v;
                            Exec::Continue
                        }
                        _ => self.goroutine_panic(gid, "deref of non-cell"),
                    },
                    _ => self.goroutine_panic(gid, "nil pointer dereference"),
                }
            }
            Instr::NewBlob { dst, bytes } => {
                let h = self.heap.alloc(Object::Blob { bytes: bytes as usize });
                self.write_var(gid, dst, Value::Ref(h));
                // Allocation assist: under heap pressure the allocator makes
                // the allocating goroutine pay (Go's GC assists).
                if let Some(assist) = self.config.assist {
                    let heap_bytes = self.heap.stats().heap_alloc_bytes;
                    if heap_bytes > assist.threshold_bytes {
                        let stall =
                            (bytes.saturating_mul(heap_bytes) / assist.scale.max(1)).min(200);
                        if stall > 0 {
                            let wake = self.tick + stall;
                            self.park(gid, WaitReason::Sleep, Blocked::None);
                            if let Some(g) = self.g_mut(gid) {
                                g.wake_tick = Some(wake);
                            }
                            return Exec::Parked;
                        }
                    }
                }
                Exec::Continue
            }
            Instr::SetGlobal(id, src) => {
                let v = self.read_var(gid, src);
                self.globals[id.index()] = v;
                self.roots_epoch += 1;
                Exec::Continue
            }
            Instr::GetGlobal(dst, id) => {
                let v = self.globals[id.index()];
                self.write_var(gid, dst, v);
                Exec::Continue
            }

            Instr::MakeChan { dst, cap } => {
                let h = self.heap.alloc(Object::chan(cap));
                if self.trace_enabled() {
                    self.trace_emit(TraceEvent::ChanMake { gid: go_id(gid), chan: h, cap });
                }
                self.write_var(gid, dst, Value::Ref(h));
                Exec::Continue
            }
            Instr::MakeTimerChan { dst, after } => {
                let h = self.heap.alloc(Object::chan(1));
                self.timers.push(crate::vm::Timer { fire_tick: self.tick + after.max(1), ch: h });
                self.roots_epoch += 1;
                self.write_var(gid, dst, Value::Ref(h));
                Exec::Continue
            }
            Instr::Send { ch, val } => {
                let chv = self.read_var(gid, ch);
                let v = self.read_var(gid, val);
                self.exec_send(gid, chv, v)
            }
            Instr::Recv { ch, dst, ok_dst } => {
                let chv = self.read_var(gid, ch);
                self.exec_recv(gid, chv, dst, ok_dst)
            }
            Instr::Close(ch) => {
                let chv = self.read_var(gid, ch);
                self.exec_close(gid, chv)
            }
            Instr::ChanLen(dst, ch) => match self.read_var(gid, ch) {
                Value::Ref(h) => match self.heap.get(h) {
                    Some(Object::Chan(c)) => {
                        let n = c.buf.len() as i64;
                        self.write_var(gid, dst, Value::Int(n));
                        Exec::Continue
                    }
                    _ => self.goroutine_panic(gid, "len of non-channel"),
                },
                Value::Nil => {
                    self.write_var(gid, dst, Value::Int(0));
                    Exec::Continue
                }
                _ => self.goroutine_panic(gid, "len of non-channel"),
            },
            Instr::ChanCap(dst, ch) => match self.read_var(gid, ch) {
                Value::Ref(h) => match self.heap.get(h) {
                    Some(Object::Chan(c)) => {
                        let n = c.cap as i64;
                        self.write_var(gid, dst, Value::Int(n));
                        Exec::Continue
                    }
                    _ => self.goroutine_panic(gid, "cap of non-channel"),
                },
                Value::Nil => {
                    self.write_var(gid, dst, Value::Int(0));
                    Exec::Continue
                }
                _ => self.goroutine_panic(gid, "cap of non-channel"),
            },
            Instr::Select { cases, default_target } => {
                self.exec_select(gid, &cases, default_target)
            }

            Instr::NewMutex(dst) => {
                let sema = self.heap.alloc(Object::Sema);
                let h = self.heap.alloc(Object::Mutex(crate::object::MutexState {
                    locked: false,
                    sema,
                    owner: None,
                }));
                self.write_var(gid, dst, Value::Ref(h));
                Exec::Continue
            }
            Instr::NewRwLock(dst) => {
                let rsema = self.heap.alloc(Object::Sema);
                let wsema = self.heap.alloc(Object::Sema);
                let h = self.heap.alloc(Object::RwLock(crate::object::RwLockState {
                    readers: 0,
                    writer: false,
                    rsema,
                    wsema,
                }));
                self.write_var(gid, dst, Value::Ref(h));
                Exec::Continue
            }
            Instr::NewWaitGroup(dst) => {
                let sema = self.heap.alloc(Object::Sema);
                let h =
                    self.heap.alloc(Object::WaitGroup(crate::object::WgState { count: 0, sema }));
                self.write_var(gid, dst, Value::Ref(h));
                Exec::Continue
            }
            Instr::NewCond(dst) => {
                let sema = self.heap.alloc(Object::Sema);
                let h = self.heap.alloc(Object::Cond(crate::object::CondState { sema }));
                self.write_var(gid, dst, Value::Ref(h));
                Exec::Continue
            }
            Instr::Lock(mu) => {
                let v = self.read_var(gid, mu);
                self.exec_lock(gid, v, WaitReason::SyncMutexLock)
            }
            Instr::Unlock(mu) => {
                let v = self.read_var(gid, mu);
                self.exec_unlock(gid, v)
            }
            Instr::RLock(rw) => {
                let v = self.read_var(gid, rw);
                self.exec_rlock(gid, v)
            }
            Instr::RUnlock(rw) => {
                let v = self.read_var(gid, rw);
                self.exec_runlock(gid, v)
            }
            Instr::WLock(rw) => {
                let v = self.read_var(gid, rw);
                self.exec_wlock(gid, v)
            }
            Instr::WUnlock(rw) => {
                let v = self.read_var(gid, rw);
                self.exec_wunlock(gid, v)
            }
            Instr::WgAdd(wg, n) => {
                let v = self.read_var(gid, wg);
                self.exec_wg_add(gid, v, n)
            }
            Instr::WgDone(wg) => {
                let v = self.read_var(gid, wg);
                self.exec_wg_add(gid, v, -1)
            }
            Instr::WgWait(wg) => {
                let v = self.read_var(gid, wg);
                self.exec_wg_wait(gid, v)
            }
            Instr::CondWait { cond, mutex } => {
                let cv = self.read_var(gid, cond);
                let mv = self.read_var(gid, mutex);
                self.exec_cond_wait(gid, cv, mv)
            }
            Instr::NewOnce(dst) => {
                let h = self.heap.alloc(Object::Once { done: false });
                self.write_var(gid, dst, Value::Ref(h));
                Exec::Continue
            }
            Instr::OnceDo { once, func } => match self.read_var(gid, once) {
                Value::Ref(h) => match self.heap.get_mut(h) {
                    Some(Object::Once { done }) => {
                        if *done {
                            return Exec::Continue;
                        }
                        *done = true;
                        let f = self.program.func(func);
                        debug_assert_eq!(f.n_params, 0, "Once callbacks take no arguments");
                        let locals = vec![Value::Nil; f.n_locals];
                        let g = &mut self.goroutines[gid.index() as usize];
                        g.frames.push(crate::goroutine::Frame {
                            func,
                            pc: 0,
                            locals,
                            ret_dst: None,
                        });
                        Exec::Continue
                    }
                    _ => self.goroutine_panic(gid, "Do on non-Once value"),
                },
                _ => self.goroutine_panic(gid, "nil pointer dereference (Once.Do)"),
            },
            Instr::CondSignal(cond) => {
                let v = self.read_var(gid, cond);
                self.exec_cond_signal(gid, v, false)
            }
            Instr::CondBroadcast(cond) => {
                let v = self.read_var(gid, cond);
                self.exec_cond_signal(gid, v, true)
            }

            Instr::GcCall => {
                self.gc_requested = true;
                Exec::Yielded
            }
            Instr::Now(dst) => {
                let t = self.tick as i64;
                self.write_var(gid, dst, Value::Int(t));
                Exec::Continue
            }
            Instr::SetFinalizer { obj, func } => match self.read_var(gid, obj) {
                Value::Ref(h) => {
                    if !self.heap.set_finalizer(h, Finalizer { func }) {
                        return self.goroutine_panic(gid, "SetFinalizer on dead object");
                    }
                    Exec::Continue
                }
                _ => self.goroutine_panic(gid, "SetFinalizer on non-pointer"),
            },
            Instr::Panic(msg) => self.goroutine_panic(gid, msg),
            Instr::Nop => Exec::Continue,
        }
    }

    fn set_pc(&mut self, gid: Gid, pc: usize) {
        let g = &mut self.goroutines[gid.index() as usize];
        g.frames.last_mut().expect("no frame").pc = pc;
    }
}

fn eval_bin(op: BinOp, a: Value, b: Value) -> Option<Value> {
    use Value::*;
    Some(match op {
        BinOp::Eq => Bool(a == b),
        BinOp::Ne => Bool(a != b),
        BinOp::And => Bool(a.truthy() && b.truthy()),
        BinOp::Or => Bool(a.truthy() || b.truthy()),
        BinOp::Add => Int(a.as_int()?.wrapping_add(b.as_int()?)),
        BinOp::Sub => Int(a.as_int()?.wrapping_sub(b.as_int()?)),
        BinOp::Mul => Int(a.as_int()?.wrapping_mul(b.as_int()?)),
        BinOp::Lt => Bool(a.as_int()? < b.as_int()?),
        BinOp::Le => Bool(a.as_int()? <= b.as_int()?),
        BinOp::Gt => Bool(a.as_int()? > b.as_int()?),
        BinOp::Ge => Bool(a.as_int()? >= b.as_int()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_semantics() {
        assert_eq!(eval_bin(BinOp::Add, Value::Int(2), Value::Int(3)), Some(Value::Int(5)));
        assert_eq!(eval_bin(BinOp::Eq, Value::Nil, Value::Nil), Some(Value::Bool(true)));
        assert_eq!(eval_bin(BinOp::Lt, Value::Int(1), Value::Int(2)), Some(Value::Bool(true)));
        assert_eq!(eval_bin(BinOp::Add, Value::Nil, Value::Int(1)), None);
        assert_eq!(
            eval_bin(BinOp::And, Value::Bool(true), Value::Int(0)),
            Some(Value::Bool(false))
        );
        assert_eq!(eval_bin(BinOp::Or, Value::Bool(false), Value::Int(7)), Some(Value::Bool(true)));
    }
}
