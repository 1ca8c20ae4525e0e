//! Application-facing request handles returned by `isend`/`irecv`.

use pioman::PiomReq;

/// Handle of an asynchronous send.
#[derive(Clone, Debug)]
pub struct SendHandle {
    pub(crate) req: PiomReq,
}

impl SendHandle {
    /// The underlying request.
    pub fn req(&self) -> &PiomReq {
        &self.req
    }
    /// True once the send buffer is reusable.
    pub fn is_complete(&self) -> bool {
        self.req.is_complete()
    }
}

/// Handle of an asynchronous receive.
#[derive(Clone, Debug)]
pub struct RecvHandle {
    pub(crate) req: PiomReq,
}

impl RecvHandle {
    /// The underlying request.
    pub fn req(&self) -> &PiomReq {
        &self.req
    }
    /// True once the message is in the application buffer.
    pub fn is_complete(&self) -> bool {
        self.req.is_complete()
    }
    /// Takes the received payload (after completion).
    pub fn take_data(&self) -> Option<Vec<u8>> {
        self.req.take_data()
    }
}
